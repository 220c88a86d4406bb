package provstore

import (
	"context"
	"errors"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/path"
	"repro/internal/provobs"
)

// A Backend persists provenance records — it plays the role of the
// provenance database P in the paper's architecture (Figure 2). Each method
// call corresponds to one logical round trip to the provenance database;
// the simulator's netsim.ChargeBackend charges network cost per call.
//
// Every method takes a context.Context as its first parameter, and a backend
// must return promptly with ctx.Err() once the context is cancelled — a
// long-running provenance query over a remote or sharded store needs a
// cancellation path, exactly as a database/sql driver does. Implementations
// that never block may simply check the context on entry.
//
// Append is the only write method, and its contract is the same at every
// depth of a decorator stack. A batch may span transactions — a batching
// layer's flush and a replica's shipped buffer are both one Append. It is
// validated wholesale before anything is stored: every record well formed
// (ValidateBatch) and {Tid, Loc} — a key, enforcing the paper's constraint
// that "for each transaction, each location has either been inserted,
// deleted, or copied" — unique within the batch and against the store, so a
// rejected Append (*DupKeyError for a key violation, *RecordTooLargeError
// for a record over the store's size bound) stores nothing. A
// durable store makes the batch durable with one commit, however many
// transactions it carries; that is all group commit is. Like an io.Writer,
// Append neither modifies recs nor keeps a reference to it: the caller may
// reuse the slice once the call returns.
//
// Scan is the only read. It returns a pull-based cursor rather than a
// materialized slice: records stream to the consumer one at a time, errors
// are yielded in-stream as the final pair, and breaking out of the loop
// releases the cursor's resources promptly (see the cursor contract in
// scan.go). A scan still costs one logical round trip — the cursor is the
// stream of that one round trip's reply, not a round trip per record. A
// point read is a scan too: Lookup and NearestAncestor are one bounded scan
// each (ScanSpec.Until), so every decorator serves them as it serves any
// scan.
type Backend interface {
	// Append stores a batch of records in one round trip and one commit.
	Append(ctx context.Context, recs []Record) error
	// Scan streams the records spec selects, strictly ascending in
	// spec.Order(), from spec's resume key when it has one. It is the
	// bounded-memory read path: one round trip however large the answer,
	// never materializing it (file-backed and remote stores hold a
	// page/chunk; the in-memory store a chunk of record numbers copied out
	// of an index), and it costs what the answer costs — a seek, then the
	// records yielded.
	Scan(ctx context.Context, spec ScanSpec) iter.Seq2[Record, error]
	// Stat returns the store's scalars in one round trip.
	Stat(ctx context.Context) (Stat, error)
}

// Walk visits a backend chain from the outside in: b, then the stores it is
// built over, each walked the same way. A composite names them with
// Below() — a sharded store's shards, a replicated store's primary and then
// its replicas — and a decorator with Inner(). When visit returns false the
// walk skips what is below that store. This is the one way code sees below
// a composite: a daemon's registries and the remote hops its trace merge
// asks are both read off it.
func Walk(b Backend, visit func(Backend) bool) {
	if b == nil || !visit(b) {
		return
	}
	switch c := b.(type) {
	case interface{ Below() []Backend }:
		for _, s := range c.Below() {
			Walk(s, visit)
		}
	case interface{ Inner() Backend }:
		Walk(c.Inner(), visit)
	}
}

// Registries returns the own registries (provobs.Source) of every store of
// b's chain, outermost first. A snapshot adds their like-named series, so a
// chain reports the work of all its stores as the one store it stands for.
func Registries(b Backend) []*provobs.Registry {
	var regs []*provobs.Registry
	Walk(b, func(s Backend) bool {
		if src, ok := s.(interface{ ObsRegistries() []*provobs.Registry }); ok { // a provobs.Source
			regs = append(regs, src.ObsRegistries()...)
		}
		return true
	})
	return regs
}

// A Stat is what a store knows about itself without reading a record (the
// JSON form is the body of GET /v1/stat).
type Stat struct {
	MaxTid int64 `json:"maxTid"` // the largest transaction identifier stored, or 0
	Count  int   `json:"count"`  // the number of stored records
	// Bytes is the size of the stored records as the store encodes them,
	// each field counted once: neither indexes, page overhead nor
	// compression enter it (over rel:// it is relstore.Table.ByteSize; the
	// size of the file is rel.data.pages).
	Bytes int64 `json:"bytes"`
}

// MemBackend is the in-memory Backend: the default store of cpdbd, Session
// and the CLI, every shard of mem://?shards=N, and the reference the
// relational backend is cross-checked against. It is safe for concurrent use.
//
// The relation is held as the paper defines it — keyed on {Tid, Loc} and
// indexed on Loc — as two orders over an append-only record log, both kept up
// in Append under the write lock, so every read costs O(log n + records
// returned) in records examined.
type MemBackend struct {
	mu     sync.RWMutex
	recs   []Record // append order; a record's number is its index here
	tidLoc memIndex // the key: (Tid, Loc) order
	locTid memIndex // the index on Loc: (Loc, Tid) order
	bytes  int64

	windows *Windows[int32] // the record numbers of a cursor's windows

	obs        *provobs.Registry
	examined   *provobs.Counter // mem.recs_examined
	outOfOrder *provobs.Counter // mem.appends_out_of_order
}

var _ provobs.Source = (*MemBackend)(nil)

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	obs := provobs.NewRegistry()
	return &MemBackend{
		tidLoc: memIndex{cmp: CompareTidLoc}, locTid: memIndex{cmp: CompareLocTid},
		windows: NewWindows[int32](memWindowMax),
		obs:     obs,
		examined: obs.Counter("cpdb_mem_recs_examined_total",
			"Records compared or yielded by reads since open.",
			provobs.WithStatKey("mem.recs_examined")),
		outOfOrder: obs.Counter("cpdb_mem_appends_out_of_order_total",
			"Records appended below the last (Tid, Loc) key (two binary searches more than one in order).",
			provobs.WithStatKey("mem.appends_out_of_order")),
	}
}

// ObsRegistries implements provobs.Source.
func (b *MemBackend) ObsRegistries() []*provobs.Registry { return []*provobs.Registry{b.obs} }

// A memIndex is one order over a record log: the record numbers in sorted
// runs of at most memRunMax, every key of a run below every key of the next,
// so a run's first entry is its key in the directory the runs form — a
// two-level B+tree, and append-only, so with no delete or rebalance code. A
// key above the last one extends the last run, which keeps an in-order
// writer's runs full; any other lands by two binary searches and moves at
// most one run's numbers (2 KB). Runs change in place: a reader copies the
// numbers it needs under the store's read lock.
type memIndex struct {
	cmp  func(a, c Record) int
	runs [][]int32
}

const memRunMax = 512

// seek returns the position — a run and an offset into it — of the first
// entry at or after key, or after it when after is set; the run is
// len(x.runs) when there is none. The records it compares are added to
// *examined.
func (x *memIndex) seek(recs []Record, key Record, after bool, examined *int) (int, int) {
	least := 0
	if after {
		least = 1
	}
	reached := func(id int32) bool {
		*examined++
		return x.cmp(recs[id], key) >= least
	}
	// The entry is in the last run whose directory key has not reached key,
	// or is the directory key of the run after that one.
	i := sort.Search(len(x.runs), func(i int) bool { return reached(x.runs[i][0]) })
	if i == 0 {
		return 0, 0
	}
	run := x.runs[i-1]
	if j := 1 + sort.Search(len(run)-1, func(j int) bool { return reached(run[j+1]) }); j < len(run) {
		return i - 1, j
	}
	return i, 0
}

// insert adds record number id, whose key no entry has, and reports whether
// the key was above every other.
func (x *memIndex) insert(recs []Record, id int32) bool {
	n := len(x.runs)
	if n == 0 {
		x.runs = [][]int32{{id}}
		return true
	}
	i, j, examined := n-1, len(x.runs[n-1]), 0
	last := x.cmp(recs[x.runs[i][j-1]], recs[id]) < 0
	if !last {
		if i, j = x.seek(recs, recs[id], true, &examined); j == 0 && i > 0 {
			i, j = i-1, len(x.runs[i-1]) // between two runs: the end of the earlier one
		}
	}
	switch run := x.runs[i]; {
	case len(run) < memRunMax:
		x.runs[i] = slices.Insert(run, j, id)
	case j == memRunMax: // past the end of a full run: a new one, so ascending keys leave full runs behind
		x.runs = slices.Insert(x.runs, i+1, append(make([]int32, 0, memRunMax), id))
	default: // split the run in half, then there is room
		const half = memRunMax / 2
		x.runs = slices.Insert(x.runs, i+1, append(make([]int32, 0, memRunMax), run[half:]...))
		x.runs[i] = run[:half]
		if j > half {
			i, j = i+1, j-half
		}
		x.runs[i] = slices.Insert(x.runs[i], j, id)
	}
	return last
}

// A memCursor is one cursor's state between its visits: the log as the last
// visit saw it — append-only, its records immutable, so a visit hands out
// record numbers, read off log with no lock held — and the cursor's
// snapshot, the records stored at its first visit: one appended later has a
// higher number wherever its key falls, and is passed over. The probes of a
// WithAncestors scan share one memCursor, so one snapshot.
type memCursor struct {
	*MemBackend
	log   []Record
	limit int32 // -1 before the first visit
}

func (c *memCursor) record(id *int32) *Record { return &c.log[*id] }

// visit is the store's Visit.
func (c *memCursor) visit(spec ScanSpec, ids []int32, want int) ([]int32, Record, bool, error) {
	x := &c.tidLoc
	if spec.byLoc() {
		x = &c.locTid
	}
	from, after := spec.start()
	spec.after = false // the seek lands past the resume key: no need to compare every record with it
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.log = c.recs; c.limit < 0 {
		c.limit = int32(len(c.log))
	}
	examined, had := 0, len(ids)
	defer func() { c.examined.Add(int64(examined)) }()
	i, j := x.seek(c.log, from, after, &examined)
	for ; i < len(x.runs); i, j = i+1, 0 {
		for _, id := range x.runs[i][j:] {
			examined++
			if spec.ends(c.log[id]) {
				return ids, Record{}, false, nil
			}
			if id < c.limit && !spec.Beyond(c.log[id].Tid) {
				ids = append(ids, id)
			}
			if len(ids)-had >= want {
				return ids, c.log[id], true, nil
			}
		}
	}
	return ids, Record{}, false, nil
}

// The most record numbers a cursor copies out of an index in one visit.
const memWindowMax = 1024

// Scan implements Backend: one stretch of one of the two orders — seek to
// where the selection starts (path.Compare sorts a path immediately before
// its descendants' region, so a subtree is one stretch too), stop at the
// first key outside it — streamed by ScanStretch; for WithAncestors, one such
// stretch of (Loc, Tid) per prefix, each gathered in one visit (ScanAncestors).
func (b *MemBackend) Scan(ctx context.Context, spec ScanSpec) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		c := &memCursor{MemBackend: b, limit: -1}
		if spec.Kind != KindAncestors {
			ScanStretch(ctx, spec, b.windows, c.visit, c.record)(yield)
			return
		}
		ScanAncestors(ctx, spec, func(p ScanSpec, ids []int32) ([]int32, error) {
			ids, _, _, err := c.visit(p, ids, math.MaxInt)
			return ids, err
		}, c.record)(yield)
	}
}

// Append implements Backend.
func (b *MemBackend) Append(ctx context.Context, recs []Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	base := len(b.recs)
	if base+len(recs) > math.MaxInt32 {
		return errors.New("provstore: in-memory store is full (2^31 records)")
	}
	// Validate the whole batch first so a failed Append stores nothing.
	if err := ValidateBatch(recs); err != nil {
		return err
	}
	for _, r := range recs {
		if b.has(r) {
			return &DupKeyError{Tid: r.Tid, Loc: r.Loc}
		}
	}
	b.recs = append(b.recs, recs...)
	for i, r := range recs {
		b.bytes += int64(r.EncodedSize())
		if !b.tidLoc.insert(b.recs, int32(base+i)) {
			b.outOfOrder.Add(1)
		}
		b.locTid.insert(b.recs, int32(base+i))
	}
	return nil
}

// ValidateBatch is the half of Append's contract that needs no store: every
// record is well formed and no {Tid, Loc} key repeats within recs. A batch
// that ascends strictly — all a deferred tracker, or a flush of several,
// ever appends — cannot repeat a key; any other is sorted (a copy) to find
// out. No key is built per record.
func ValidateBatch(recs []Record) error {
	ascending := true
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		ascending = ascending && (i == 0 || CompareTidLoc(recs[i-1], r) < 0)
	}
	if ascending {
		return nil
	}
	sorted := slices.SortedFunc(slices.Values(recs), CompareTidLoc)
	for i := 1; i < len(sorted); i++ {
		if r := sorted[i]; CompareTidLoc(sorted[i-1], r) == 0 {
			return &DupKeyError{Tid: r.Tid, Loc: r.Loc}
		}
	}
	return nil
}

// has reports whether the store holds r's key. A key above the last — every
// duplicate probe of an in-order writer — costs one comparison. The caller
// holds a lock.
func (b *MemBackend) has(r Record) bool {
	x := &b.tidLoc
	n := len(x.runs)
	if n == 0 {
		return false
	}
	if last := x.runs[n-1]; CompareTidLoc(b.recs[last[len(last)-1]], r) < 0 {
		return false
	}
	var examined int
	i, j := x.seek(b.recs, r, false, &examined)
	return CompareTidLoc(b.recs[x.runs[i][j]], r) == 0
}

// Stat implements Backend. MaxTid is the transaction of the last (Tid, Loc)
// key, or 0 for a store with no positive one.
func (b *MemBackend) Stat(ctx context.Context) (Stat, error) {
	if err := ctx.Err(); err != nil {
		return Stat{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	st := Stat{Count: len(b.recs), Bytes: b.bytes}
	if n := len(b.tidLoc.runs); n > 0 {
		b.examined.Add(1)
		last := b.tidLoc.runs[n-1]
		st.MaxTid = max(b.recs[last[len(last)-1]].Tid, 0)
	}
	return st, nil
}

// All returns every stored record in insertion order (a test/debug helper,
// not part of the Backend interface).
func (b *MemBackend) All() []Record {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]Record, len(b.recs))
	copy(out, b.recs)
	return out
}

// DupKeyError reports a violation of the {Tid, Loc} key constraint.
type DupKeyError struct {
	Tid int64
	Loc path.Path
}

func (e *DupKeyError) Error() string {
	return "provstore: duplicate (tid, loc) key: (" + itoa(e.Tid) + ", " + e.Loc.String() + ")"
}

// RecordTooLargeError reports a record a store cannot hold: stored, it would
// take more than Limit bytes, the store's bound on one entry. Like a key
// violation it rejects the whole Append before anything is stored.
type RecordTooLargeError struct {
	Tid   int64
	Loc   path.Path
	Limit int
}

func (e *RecordTooLargeError) Error() string {
	return "provstore: record (" + itoa(e.Tid) + ", " + e.Loc.String() + ") too large: a stored record is at most " + itoa(int64(e.Limit)) + " bytes"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
