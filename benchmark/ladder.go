package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	cpdb "repro"
)

// A rung is one stack of the ladder. Layers are only publicly addressable
// as DSNs, so a layer's cost is the difference between a rung and its
// parent, which differ by exactly that layer.
type rung struct {
	name, parent string
	dsn          func(dir string) string // "" means a cpdbd -backend mem:// reached over cpdb://
	batch        int
}

func fixed(dsn string) func(string) string { return func(string) string { return dsn } }

var rungs = []rung{
	{name: "mem", dsn: fixed("mem://")},
	{name: "batching", parent: "mem", dsn: fixed("mem://"), batch: 64},
	{name: "sharded", parent: "mem", dsn: fixed("mem://?shards=4")},
	{name: "verified", parent: "mem", dsn: fixed("verified://?inner=" + url.QueryEscape("mem://"))},
	{name: "replicated", parent: "mem", dsn: fixed("replicated://?primary=" + url.QueryEscape("mem://") + "&replica=" + url.QueryEscape("mem://"))},
	{name: "rel", parent: "mem", dsn: func(dir string) string { return relDSN(dir, "create=1") }},
	{name: "rel-durable", parent: "rel", dsn: func(dir string) string { return relDSN(dir, "create=1&durable=1") }},
	{name: "wire", parent: "mem", dsn: fixed("")},
}

// rungMetrics are reported per rung, each with its delta against the parent.
var rungMetrics = []struct{ name, unit string }{
	{"ingest_us_per_op", "us"},
	{"drain_ns_per_rec", "ns"},
	{"query_ms", "ms"},
	{"allocs_per_op", "allocs"},
}

// ladder is the fixed tape every rung runs: an ingest, one full drain and a
// short query tape, all checked against the mem:// replay.
type ladder struct {
	e     *env
	in    *inputs
	reads []question
	want  digest
}

// runLadder runs the tape through every rung in interleaved rounds — rung
// after rung, then again — so a slow spell of the machine hits all rungs
// alike, and reports each rung's median with its delta against the parent,
// plus the single-layer probes that need no rung.
func runLadder(e *env, seed int64, sc scale) (map[string]metric, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.procs))
	l := &ladder{e: e, in: genInputs(seed, sc.ladderOps, 0)}
	ref, err := l.in.replay(l.in.history)
	if err != nil {
		return nil, err
	}
	if l.want, err = digestOf(ref); err != nil {
		return nil, err
	}
	if l.reads, err = l.in.liveQuestions(ref, sc.ladderReads); err != nil {
		return nil, err
	}

	samples := map[string][]float64{}
	for r := 0; r < sc.ladderRounds; r++ {
		for _, rg := range rungs {
			vals, err := l.round(rg)
			if err != nil {
				return nil, fmt.Errorf("rung %s: %w", rg.name, err)
			}
			for i, v := range vals {
				key := rg.name + "." + rungMetrics[i].name
				samples[key] = append(samples[key], v)
			}
		}
		ms, err := l.cliRound()
		if err != nil {
			return nil, fmt.Errorf("rung cli: %w", err)
		}
		samples["cli.invoke_ms"] = append(samples["cli.invoke_ms"], ms)
	}

	out := map[string]metric{"ladder.cli.invoke_ms": {median(samples["cli.invoke_ms"]), "ms"}}
	for _, rg := range rungs {
		for _, m := range rungMetrics {
			v := median(samples[rg.name+"."+m.name])
			out["ladder."+rg.name+"."+m.name] = metric{v, m.unit}
			if rg.parent != "" {
				out["ladder."+rg.name+"."+m.name+"_delta"] = metric{v - median(samples[rg.parent+"."+m.name]), m.unit}
			}
		}
	}
	if err := l.probes(out); err != nil {
		return nil, err
	}
	return out, nil
}

// liveQuestions picks n trace/hist/mod questions about locations the replay
// wrote.
func (in *inputs) liveQuestions(ref *cpdb.Session, n int) ([]question, error) {
	live, _, err := neverDeleted(ref)
	if err != nil {
		return nil, err
	}
	qs := make([]question, n)
	for i := range qs {
		qs[i] = rotating(i, live[in.rng.Intn(len(live))])
	}
	return qs, nil
}

// round runs the tape through one rung on a fresh store and returns the
// rungMetrics values in order.
func (l *ladder) round(rg rung) ([]float64, error) {
	dir, err := l.e.dir("rung")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dsn := rg.dsn(dir)
	var d *daemon
	if dsn == "" {
		if d, err = l.e.startDaemon("mem://"); err != nil {
			return nil, err
		}
		defer d.stop() //nolint:errcheck // an in-memory daemon has nothing to flush
		dsn = d.dsn()
	}
	s, err := l.in.session(dsn, l.in.target, 1, rg.batch)
	if err != nil {
		return nil, err
	}
	defer s.Close() //nolint:errcheck // closed again below on the success path

	var rs roundStats
	m, err := startMeter(d)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, failed := runTxns(s, l.in.history, nil); failed > 0 {
		return nil, fmt.Errorf("%d transactions failed", failed)
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	ingest := time.Since(t0)
	if err := m.stop(&rs); err != nil {
		return nil, err
	}

	t0 = time.Now()
	got, err := digestOf(s)
	drain := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if got != l.want {
		return nil, fmt.Errorf("drained %+v, the mem:// replay holds %+v", got, l.want)
	}

	t0 = time.Now()
	for i := range l.reads {
		if _, err := l.reads[i].ask(s); err != nil {
			return nil, fmt.Errorf("%s %s: %w", l.reads[i].kind, l.reads[i].path, err)
		}
	}
	query := time.Since(t0)

	ops := float64(len(l.in.history))
	return []float64{
		float64(ingest) / 1e3 / ops,
		float64(drain) / float64(got.Count),
		float64(query) / 1e6 / float64(len(l.reads)),
		float64(rs.alloc.Mallocs) / ops,
	}, s.Close()
}

// --- the cli rung ---------------------------------------------------------------

// fig3 is the paper's Figure 3 script, as the CI step runs it.
const fig3 = `delete c5 from T;
copy S1/a1/y into T/c1/y;
insert {c2 : {}} into T;
copy S1/a2 into T/c2;
insert {y : {}} into T/c2;
copy S2/b3/y into T/c2/y;
copy S1/a3 into T/c3;
insert {c4 : {}} into T;
copy S2/b2 into T/c4;
insert {y : 12} into T/c4;
`

func (l *ladder) cli(args ...string) ([]byte, error) {
	cmd := exec.Command(l.e.cpdb, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(l.e.procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("cpdb %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// cliRound times the CI step's Figure 3 invocation — one cpdb process, its
// script, three queries and a dump — against a fresh daemon, and requires
// its output to be byte-identical to the same invocation over mem://.
func (l *ladder) cliRound() (float64, error) {
	script := filepath.Join(l.e.work, "fig3.cpdb")
	if err := os.WriteFile(script, []byte(fig3), 0o644); err != nil {
		return 0, err
	}
	args := []string{"-demo", "-script", script, "-query", "hist T/c2/y", "-query", "trace T/c1/y", "-query", "mod T", "-dump"}
	want, err := l.cli(args...)
	if err != nil {
		return 0, err
	}
	d, err := l.e.startDaemon("mem://")
	if err != nil {
		return 0, err
	}
	defer d.stop() //nolint:errcheck // an in-memory daemon has nothing to flush
	t0 := time.Now()
	got, err := l.cli(append(args, "-backend", d.dsn())...)
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("cpdb over cpdb:// printed\n%s\nover mem://\n%s", got, want)
	}
	return ms, nil
}

// --- single-layer probes --------------------------------------------------------

// probes adds the layer metrics that need no rung: records per operation
// for each tracker, the three parsers, rows examined per row returned, and
// the three caches on a skewed tape.
func (l *ladder) probes(out map[string]metric) error {
	ops := l.in.history
	for _, name := range []string{"N", "H", "T", "HT"} {
		method, err := cpdb.ParseMethod(name)
		if err != nil {
			return err
		}
		in := *l.in
		in.method = method
		s, err := in.replay(ops)
		if err != nil {
			return err
		}
		n, err := s.RecordCount()
		if err != nil {
			return err
		}
		out["tracker."+name+".recs_per_op"] = metric{float64(n) / float64(len(ops)), "count"}
	}

	var script strings.Builder
	var paths, plans []string
	for _, op := range ops {
		script.WriteString(op.text)
		script.WriteString(";\n")
	}
	for _, q := range l.reads {
		paths = append(paths, q.path.String())
		plans = append(plans, q.kind+" "+q.path.String(), selectText(q.path))
	}
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, p := range paths {
			if _, err := cpdb.ParsePath(p); err != nil {
				return err
			}
		}
	}
	out["path.parse_ns"] = metric{float64(time.Since(t0)) / float64(reps*len(paths)), "ns"}
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		for _, p := range plans {
			if _, err := cpdb.ParsePlanQuery(p); err != nil {
				return err
			}
		}
	}
	out["provplan.parse_us"] = metric{float64(time.Since(t0)) / 1e3 / float64(reps*len(plans)), "us"}
	t0 = time.Now()
	if _, err := cpdb.ParseScript(script.String()); err != nil {
		return err
	}
	out["update.parse_us_per_op"] = metric{float64(time.Since(t0)) / 1e3 / float64(len(ops)), "us"}

	return l.servedProbes(out)
}

var (
	scannedLine = regexp.MustCompile(`analyze: (\d+) records scanned`)
	countLine   = regexp.MustCompile(`\((\d+) records\)`)
	tidsLine    = regexp.MustCompile(`txns \[([^\]]*)\]`)
)

// servedProbes fills the probes that need a daemon holding the tape: rows
// examined per row returned from cmd/cpdb -analyze, and hit and miss times
// of the client result cache, the server page cache and the server plan
// cache on a skewed tape (a few hot keys asked again and again). The caches
// are off in every workload, as in the product's defaults; here is where
// they are priced.
func (l *ladder) servedProbes(out map[string]metric) error {
	d, err := l.e.startDaemon("mem://", "-cache-bytes", "16mb", "-plan-cache", "64")
	if err != nil {
		return err
	}
	defer d.stop() //nolint:errcheck // an in-memory daemon has nothing to flush
	s, err := l.in.session(d.dsn(), l.in.target, 1, 0)
	if err != nil {
		return err
	}
	defer s.Close() //nolint:errcheck // a cpdb:// session holds no files
	if _, failed := runTxns(s, l.in.history, nil); failed > 0 {
		return fmt.Errorf("%d transactions failed filling the probe daemon", failed)
	}

	// Rows examined ÷ rows returned, from the CLI's EXPLAIN ANALYZE text. A
	// format the patterns no longer match reports 0 rather than failing.
	for _, kind := range []string{"trace", "hist", "mod", "select"} {
		args := []string{"-demo", "-analyze", "-backend", d.dsn()}
		for _, q := range l.reads {
			text := kind + " " + q.path.String()
			if kind == "select" {
				text = selectText(q.path.Prefix(2))
			}
			args = append(args, "-query", "plan "+text)
		}
		text, err := l.cli(args...)
		if err != nil {
			return err
		}
		scanned, rows := 0, 0
		for _, m := range scannedLine.FindAllSubmatch(text, -1) {
			n, _ := strconv.Atoi(string(m[1]))
			scanned += n
		}
		for _, m := range countLine.FindAllSubmatch(text, -1) {
			n, _ := strconv.Atoi(string(m[1]))
			rows += n
		}
		for _, m := range tidsLine.FindAllSubmatch(text, -1) {
			rows += len(bytes.Fields(m[1]))
		}
		rows += bytes.Count(text, []byte("\n  txn "))
		ratio := 0.0
		if rows > 0 {
			ratio = float64(scanned) / float64(rows)
		}
		out["provplan.rows_per_result."+kind] = metric{ratio, "ratio"}
	}

	// The skewed tape: the first four questions, round and round.
	hot := l.reads[:min(4, len(l.reads))]
	const laps = 25
	timeTape := func(ask func(q *question) error) (first, again float64, err error) {
		var firsts, agains []float64
		for lap := 0; lap < laps; lap++ {
			for i := range hot {
				t0 := time.Now()
				if err := ask(&hot[i]); err != nil {
					return 0, 0, err
				}
				us := float64(time.Since(t0)) / 1e3
				if lap == 0 {
					firsts = append(firsts, us)
				} else {
					agains = append(agains, us)
				}
			}
		}
		return median(firsts), median(agains), nil
	}
	asked := float64(laps * len(hot))

	// Client result cache: a hit never reaches the daemon.
	cached, err := l.in.session(d.dsn()+"?cache=4mb", l.in.target, 1, 0)
	if err != nil {
		return err
	}
	defer cached.Close() //nolint:errcheck // a cpdb:// session holds no files
	sv0 := d.served()
	miss, hit, err := timeTape(func(q *question) error { _, err := q.ask(cached); return err })
	if err != nil {
		return err
	}
	sv1 := d.served()
	out["cache.client.miss_us"] = metric{miss, "us"}
	out["cache.client.hit_us"] = metric{hit, "us"}
	ratio := 0.0
	if sv0.ok && sv1.ok {
		ratio = 1 - (sv1.requests-sv0.requests)/asked
	}
	out["cache.client.hit_ratio"] = metric{ratio, "ratio"}

	// Server plan cache: the same select texts through an uncached client.
	_, hit, err = timeTape(func(q *question) error {
		_, err := s.Plan(selectText(q.path.Prefix(2)))
		return err
	})
	if err != nil {
		return err
	}
	out["cache.plan.hit_us"] = metric{hit, "us"}
	out["cache.plan.hit_ratio"] = metric{d.cacheHitRatio("plan"), "ratio"}

	// Server page cache: the same bounded scan page, fetched raw.
	_, hit, err = timeTape(func(*question) error {
		resp, err := statsClient.Get("http://" + d.addr + "/v1/scan-all?limit=256")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/scan-all?limit=256: %s", resp.Status)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	if err != nil {
		return err
	}
	out["cache.page.hit_us"] = metric{hit, "us"}
	out["cache.page.hit_ratio"] = metric{d.cacheHitRatio("page"), "ratio"}
	return nil
}

// cacheHitRatio reads hits ÷ lookups of one server cache from /metrics; 0
// when the series are missing.
func (d *daemon) cacheHitRatio(cache string) float64 {
	var hits, misses float64
	d.eachSeries(func(name, labels string, v float64) {
		if !strings.Contains(labels, `cache="`+cache+`"`) {
			return
		}
		switch name {
		case "cpdb_cache_hits_total":
			hits = v
		case "cpdb_cache_misses_total":
			misses = v
		}
	})
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
