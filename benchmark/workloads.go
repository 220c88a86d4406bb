package main

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"reflect"
	"time"

	cpdb "repro"
)

// scale fixes the op counts of every round. Rounds are identical: the same
// operations on the same starting state, so a run's value is a median over
// rounds and does not depend on how many rounds the time budget allowed.
type scale struct {
	historyOps                           int    // operations in the shared history
	curateOps                            int    // operations per curate round
	queryTape                            [4]int // trace, hist, mod, select queries per query round
	drains                               int    // full drains per drain round
	chunk                                int    // records per drain latency sample
	chainOps                             int    // operations per chain round
	chainStep                            int    // operations between two reads in chain
	setups                               int    // times the set-up is repeated; setup_s is their median
	minRounds                            int
	ladderOps, ladderRounds, ladderReads int // the ladder's tape
}

var (
	fullScale = scale{
		historyOps: 10000, curateOps: 1500, queryTape: [4]int{48, 24, 24, 24},
		drains: 10, chunk: 500, chainOps: 10000, chainStep: 25, setups: 3, minRounds: 5,
		ladderOps: 3000, ladderRounds: 3, ladderReads: 30,
	}
	quickScale = scale{
		historyOps: 1000, curateOps: 100, queryTape: [4]int{8, 4, 4, 4},
		drains: 2, chunk: 100, chainOps: 500, chainStep: 25, setups: 1, minRounds: 2,
		ladderOps: 300, ladderRounds: 1, ladderReads: 6,
	}
)

// roundStats is what one timed round measured.
type roundStats struct {
	units     int             // editor ops, queries or records
	wall      time.Duration   // the timed phase
	slow      float64         // the speed probe's slowdown around the round (set by runWorkload)
	lat       []time.Duration // one sample per latency op
	attempted int             // latency ops and output checks
	failed    int             // … that errored or mismatched
	alloc     mem             // Δ over the timed phase, generator + daemon; HeapAlloc is the live heap after it
	served    served          // Δ of the daemon's /metrics over the timed phase
	stored    int64           // bytes the store holds after the round
	records   int             // records the store holds after the round
}

// A bench is one workload: set-up builds the state every round starts from,
// round runs one timed round (spans go to tr when it is not nil).
type bench interface {
	setup() error
	round(tr *tracer) (roundStats, error)
	teardown()
}

// meter brackets a timed phase: it reads the allocation counters of the
// generator and the daemon (d may be nil) and the daemon's /metrics before
// and after, with a forced collection on both sides each time.
type meter struct {
	d   *daemon
	m0  mem
	sv0 served
}

func startMeter(d *daemon) (*meter, error) {
	m := &meter{d: d}
	if d != nil {
		dm, err := d.mem()
		if err != nil {
			return nil, err
		}
		m.m0 = dm
		m.sv0 = d.served()
	}
	m.m0 = m.m0.add(selfMem())
	return m, nil
}

func (m *meter) stop(rs *roundStats) error {
	m1 := selfMem()
	if m.d != nil {
		sv1 := m.d.served()
		rs.served = served{sv1.requests - m.sv0.requests, sv1.busy - m.sv0.busy, sv1.ok && m.sv0.ok}
		dm, err := m.d.mem()
		if err != nil {
			return err
		}
		m1 = m1.add(dm)
	}
	rs.alloc = m1.sub(m.m0)
	rs.alloc.HeapAlloc = m1.HeapAlloc
	return nil
}

// --- curate -------------------------------------------------------------------

// curate is the write path over the wire into a durable store: a fresh
// daemon per round over a copy of the history, then the same transactions.
type curate struct {
	e    *env
	in   *inputs
	hist string // the history's store directory
	want digest // history + next, replayed in process over mem://
}

func (w *curate) setup() (err error) {
	if w.hist, err = w.e.dir("hist"); err != nil {
		return err
	}
	if err := w.in.buildHistory(w.hist); err != nil {
		return err
	}
	ref, err := w.in.replay(w.in.history, w.in.next)
	if err != nil {
		return err
	}
	w.want, err = digestOf(ref)
	return err
}

func (w *curate) teardown() { os.RemoveAll(w.hist) }

func (w *curate) round(tr *tracer) (roundStats, error) { return w.run(tr, false) }

// run is one round. With crash set it is the durability probe: the daemon
// is killed straight after the last commit is acknowledged — no Flush, no
// graceful shutdown — and restarted on the same files before the check.
func (w *curate) run(tr *tracer, crash bool) (rs roundStats, err error) {
	dir, err := w.e.dir("curate")
	if err != nil {
		return rs, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(w.hist, dir); err != nil {
		return rs, err
	}
	d, err := w.e.startDaemon(relDSN(dir, "durable=1"))
	if err != nil {
		return rs, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	s, err := w.in.session(d.dsn(), w.in.mirror, w.in.startTid(), 0)
	if err != nil {
		return rs, err
	}
	defer func() { s.Close() }() //nolint:errcheck // a cpdb:// session holds no files

	m, err := startMeter(d)
	if err != nil {
		return rs, err
	}
	t0 := time.Now()
	lat, failed := runTxns(s, w.in.next, tr)
	if !crash {
		if err := s.Flush(); err != nil {
			failed++
		}
	}
	rs.wall = time.Since(t0)
	rs.units, rs.lat, rs.attempted, rs.failed = len(w.in.next), lat, len(lat)+1, failed

	if crash {
		d.kill()
		restarted, err := w.e.startDaemon(relDSN(dir, "durable=1"))
		if err != nil {
			return rs, err
		}
		d = restarted
		s.Close() //nolint:errcheck // its daemon is gone
		reopened, err := w.in.session(d.dsn(), w.in.mirror, w.in.startTid(), 0)
		if err != nil {
			return rs, err
		}
		s = reopened
	} else if err := m.stop(&rs); err != nil {
		return rs, err
	}
	got, err := digestOf(s)
	n, cerr := s.RecordCount()
	if err != nil || cerr != nil || got != w.want || n != w.want.Count {
		rs.failed++
	}
	rs.records = n
	rs.stored, err = dirBytes(dir)
	return rs, err
}

// --- query --------------------------------------------------------------------

// A question is one query of the tape and the answer an in-process session
// over the same history gave.
type question struct {
	kind string // trace, hist, mod or select
	path cpdb.Path
	text string // the plan text of a select
	want any
}

// selectText is the tape's bounded select over the subtree at p.
func selectText(p cpdb.Path) string {
	return "select where loc>=" + p.String() + " order loc-tid limit 50"
}

// rotating is the i-th question of a trace/hist/mod rotation about p; mod
// takes the enclosing entry-level subtree.
func rotating(i int, p cpdb.Path) question {
	q := question{kind: []string{"trace", "hist", "mod"}[i%3], path: p}
	if q.kind == "mod" {
		q.path = p.Prefix(2)
	}
	return q
}

func (q *question) ask(s *cpdb.Session) (any, error) {
	switch q.kind {
	case "trace":
		return s.Trace(q.path)
	case "hist":
		return s.Hist(q.path)
	case "mod":
		return s.Mod(q.path)
	default:
		res, err := s.Plan(q.text)
		if err != nil {
			return nil, err
		}
		return res.Records, nil
	}
}

// servedStore is the state query and drain share: one daemon over a copy of the
// history for the whole run, caches off, and one client session.
type servedStore struct {
	e    *env
	in   *inputs
	hist string
	dir  string
	d    *daemon
	s    *cpdb.Session
}

// open builds the history, serves one copy and opens a second copy in
// process; the caller takes its reference answers from ref and closes it.
func (v *servedStore) open() (ref *cpdb.Session, err error) {
	if v.hist, err = v.e.dir("hist"); err != nil {
		return nil, err
	}
	if err := v.in.buildHistory(v.hist); err != nil {
		return nil, err
	}
	if v.dir, err = v.e.dir("served"); err != nil {
		return nil, err
	}
	if err := copyDir(v.hist, v.dir); err != nil {
		return nil, err
	}
	if v.d, err = v.e.startDaemon(relDSN(v.dir, "durable=1")); err != nil {
		return nil, err
	}
	if v.s, err = v.in.session(v.d.dsn(), v.in.mirror, v.in.startTid(), 0); err != nil {
		return nil, err
	}
	refDir, err := v.e.dir("ref")
	if err != nil {
		return nil, err
	}
	if err := copyDir(v.hist, refDir); err != nil {
		return nil, err
	}
	return v.in.session(relDSN(refDir, "durable=1"), v.in.mirror, v.in.startTid(), 0)
}

func (v *servedStore) teardown() {
	if v.s != nil {
		v.s.Close() //nolint:errcheck // a cpdb:// session holds no files
	}
	if v.d != nil {
		v.d.stop() //nolint:errcheck // teardown
	}
	os.RemoveAll(v.hist)
	os.RemoveAll(v.dir)
	*v = servedStore{e: v.e, in: v.in}
}

// finish fills the store-size fields from the served directory.
func (v *servedStore) finish(rs *roundStats) (err error) {
	if rs.records, err = v.s.RecordCount(); err != nil {
		return err
	}
	rs.stored, err = dirBytes(v.dir)
	return err
}

// query is the read path with small answers: a fixed tape of trace, hist,
// mod and bounded select queries, each checked against the in-process
// answer.
type query struct {
	servedStore
	counts [4]int
	tape   []question
}

func (w *query) setup() error {
	ref, err := w.open()
	if err != nil {
		return err
	}
	defer ref.Close()
	if w.tape, err = w.in.questions(ref, w.counts); err != nil {
		return err
	}
	for i := range w.tape {
		if w.tape[i].want, err = w.tape[i].ask(ref); err != nil {
			return fmt.Errorf("benchmark: reference %s %s: %w", w.tape[i].kind, w.tape[i].path, err)
		}
	}
	return nil
}

// questions picks the tape's locations with the seed: locations the history
// wrote and that are still live, half of them one level further down so
// hierarchical inference has to work; mod and select take the enclosing
// entry-level subtree.
func (in *inputs) questions(ref *cpdb.Session, counts [4]int) ([]question, error) {
	var live []cpdb.Path
	root := cpdb.MustParsePath("T")
	for rec, err := range ref.Query().Records(context.Background()) {
		if err != nil {
			return nil, err
		}
		if rel, err := rec.Loc.TrimPrefix(root); err == nil && in.mirror.Has(rel) {
			live = append(live, rec.Loc)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("benchmark: the history left no live location to ask about")
	}
	var tape []question
	for k, kind := range []string{"trace", "hist", "mod", "select"} {
		for i := 0; i < counts[k]; i++ {
			p := live[in.rng.Intn(len(live))]
			q := question{kind: kind, path: p}
			switch kind {
			case "trace", "hist":
				rel, _ := p.TrimPrefix(root)
				if node, err := in.mirror.Get(rel); err == nil && node.NumChildren() > 0 && i%2 == 1 {
					labels := node.Labels()
					q.path = p.Child(labels[in.rng.Intn(len(labels))])
				}
			case "mod":
				q.path = p.Prefix(2)
			default:
				q.path = p.Prefix(2)
				q.text = selectText(q.path)
			}
			tape = append(tape, q)
		}
	}
	in.rng.Shuffle(len(tape), func(i, j int) { tape[i], tape[j] = tape[j], tape[i] })
	return tape, nil
}

func (w *query) round(tr *tracer) (rs roundStats, err error) {
	m, err := startMeter(w.d)
	if err != nil {
		return rs, err
	}
	got := make([]any, len(w.tape))
	errs := make([]error, len(w.tape))
	rs.lat = make([]time.Duration, len(w.tape))
	t0 := time.Now()
	for i := range w.tape {
		q := &w.tape[i]
		q0 := time.Now()
		root := tr.begin("query", 0)
		sp := tr.begin(q.kind, root)
		got[i], errs[i] = q.ask(w.s)
		tr.end(sp)
		tr.end(root)
		rs.lat[i] = time.Since(q0)
	}
	rs.wall = time.Since(t0)
	if err := m.stop(&rs); err != nil {
		return rs, err
	}
	rs.units, rs.attempted = len(w.tape), len(w.tape)
	for i := range w.tape {
		if errs[i] != nil || !reflect.DeepEqual(got[i], w.tape[i].want) {
			rs.failed++
		}
	}
	return rs, w.finish(&rs)
}

// --- drain --------------------------------------------------------------------

// drain is the bulk scan: full Records drains of the served store, timed per
// chunk as the consumer sees them.
type drain struct {
	servedStore
	drains, chunk int
	want          digest
}

func (w *drain) setup() error {
	ref, err := w.open()
	if err != nil {
		return err
	}
	defer ref.Close()
	w.want, err = digestOf(ref)
	return err
}

func (w *drain) round(tr *tracer) (rs roundStats, err error) {
	m, err := startMeter(w.d)
	if err != nil {
		return rs, err
	}
	t0 := time.Now()
	for i := 0; i < w.drains; i++ {
		h := newRecHash()
		var derr error
		root := tr.begin("drain", 0)
		sp := tr.begin("first_chunk", root)
		mark := time.Now()
		for rec, err := range w.s.Query().Records(context.Background()) {
			if err != nil {
				derr = err
				break
			}
			h.add(rec)
			if h.n%w.chunk == 0 {
				now := time.Now()
				rs.lat = append(rs.lat, now.Sub(mark))
				mark = now
				if h.n == w.chunk {
					tr.end(sp)
					sp = tr.begin("stream", root)
				}
			}
		}
		tr.end(sp)
		tr.end(root)
		rs.units += h.n
		rs.attempted++
		if derr != nil || h.digest() != w.want {
			rs.failed++
		}
	}
	rs.wall = time.Since(t0)
	if err := m.stop(&rs); err != nil {
		return rs, err
	}
	return rs, w.finish(&rs)
}

// --- chain --------------------------------------------------------------------

// chainDSN stacks every composite driver over in-memory stores.
var chainDSN = "replicated://?primary=" +
	url.QueryEscape("verified://?inner="+url.QueryEscape("mem://?shards=4")) +
	"&replica=" + url.QueryEscape("mem://")

// chain is writes beside reads through the composite drivers, in process:
// each round ingests the history's first operations into a fresh chain with
// a read after every step, then flushes and drains it.
type chain struct {
	e     *env
	in    *inputs
	ops   []editOp
	step  int
	reads []question // one per step
	want  digest
	probe []float64 // restart probe: reopen times, ms
}

func (w *chain) setup() error {
	ref, err := w.in.replay(w.ops)
	if err != nil {
		return err
	}
	if w.want, err = digestOf(ref); err != nil {
		return err
	}
	// The read after step k asks about a location some transaction up to
	// that step wrote.
	locs, tids, err := neverDeleted(ref)
	if err != nil {
		return err
	}
	w.reads = w.reads[:0]
	hi := 0
	for k := 0; (k+1)*w.step <= len(w.ops); k++ {
		for hi < len(tids) && tids[hi] <= int64((k+1)*w.step/commitEvery) {
			hi++
		}
		w.reads = append(w.reads, rotating(k, locs[w.in.rng.Intn(max(hi, 1))]))
	}
	return w.restartProbe()
}

// restartProbe builds the history behind verified:// over a durable store,
// closes it and reopens it three times: today the reopen rebuilds the
// Merkle tree from a full scan, so its cost grows with the history.
func (w *chain) restartProbe() error {
	dir, err := w.e.dir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := w.in.session("verified://?inner="+url.QueryEscape(relDSN(dir, "create=1&durable=1")), w.in.target, 1, 256)
	if err != nil {
		return err
	}
	if _, failed := runTxns(s, w.in.history, nil); failed > 0 {
		s.Close() //nolint:errcheck // the failure count is the error
		return fmt.Errorf("benchmark: %d restart-probe transactions failed", failed)
	}
	if err := s.Close(); err != nil {
		return err
	}
	w.probe = w.probe[:0]
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		be, err := cpdb.OpenBackend("verified://?inner=" + url.QueryEscape(relDSN(dir, "durable=1")))
		if err != nil {
			return err
		}
		w.probe = append(w.probe, float64(time.Since(t0))/float64(time.Millisecond))
		if err := cpdb.CloseBackend(be); err != nil {
			return err
		}
	}
	return nil
}

func (w *chain) teardown() {}

func (w *chain) round(tr *tracer) (rs roundStats, err error) {
	s, err := w.in.session(chainDSN, w.in.target, 1, 64)
	if err != nil {
		return rs, err
	}
	m, err := startMeter(nil)
	if err != nil {
		return rs, err
	}
	rs.lat = make([]time.Duration, 0, len(w.reads))
	t0 := time.Now()
	for k := range w.reads {
		s0 := time.Now()
		root := tr.begin("step", 0)
		failed := false
		for i := k * w.step; i < (k+1)*w.step; i += commitEvery {
			if applyCommit(s, w.ops[i:i+commitEvery], tr, root) != nil {
				failed = true
			}
		}
		sp := tr.begin("query", root)
		if _, err := w.reads[k].ask(s); err != nil {
			failed = true
		}
		tr.end(sp)
		tr.end(root)
		rs.lat = append(rs.lat, time.Since(s0))
		if failed {
			rs.failed++
		}
	}
	root := tr.begin("drain", 0)
	err = s.Flush()
	got, derr := digestOf(s)
	tr.end(root)
	rs.wall = time.Since(t0)
	rs.units, rs.attempted = len(w.reads)*w.step, len(w.reads)+1
	if err != nil || derr != nil || got != w.want {
		rs.failed++
	}
	// Counters are read with the chain still open: heap_live_mb is what a
	// running store holds.
	if err := m.stop(&rs); err != nil {
		return rs, err
	}
	if rs.records, err = s.RecordCount(); err != nil {
		return rs, err
	}
	if rs.stored, err = s.RecordBytes(); err != nil {
		return rs, err
	}
	return rs, s.Close()
}
