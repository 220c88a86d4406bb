package provstore

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/path"
	"repro/internal/provobs"
)

// refMem is the store MemBackend used to be: a record log that every read
// filters from end to end and sorts the survivors of. Nothing in it can be
// wrong about an index, which makes it the oracle the indexed store is
// compared against.
type refMem struct {
	recs  []Record
	byKey map[recKey]Record
}

func (m *refMem) append(recs []Record) error {
	seen := map[recKey]bool{}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		k := recKey{r.Tid, r.Loc}
		if _, stored := m.byKey[k]; stored || seen[k] {
			return &DupKeyError{Tid: r.Tid, Loc: r.Loc}
		}
		seen[k] = true
	}
	if m.byKey == nil {
		m.byKey = map[recKey]Record{}
	}
	for _, r := range recs {
		m.byKey[recKey{r.Tid, r.Loc}] = r
	}
	m.recs = append(m.recs, recs...)
	return nil
}

func (m *refMem) scanFiltered(keep func(Record) bool, cmp func(a, c Record) int) []Record {
	var out []Record
	for _, r := range m.recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, cmp)
	return out
}

func (m *refMem) lookup(tid int64, loc path.Path) (Record, bool) {
	r, ok := m.byKey[recKey{tid, loc}]
	return r, ok
}

func (m *refMem) nearestAncestor(tid int64, loc path.Path) (Record, bool) {
	for n := loc.Len() - 1; n >= 1; n-- {
		if r, ok := m.lookup(tid, loc.Prefix(n)); ok {
			return r, true
		}
	}
	return Record{}, false
}

func (m *refMem) scanTid(tid int64) []Record {
	return m.scanFiltered(func(r Record) bool { return r.Tid == tid }, CompareLocTid)
}

func (m *refMem) scanLoc(loc path.Path) []Record {
	return m.scanFiltered(func(r Record) bool { return r.Loc.Equal(loc) }, CompareTidLoc)
}

func (m *refMem) scanLocPrefix(prefix path.Path) []Record {
	return m.scanFiltered(func(r Record) bool { return prefix.IsPrefixOf(r.Loc) }, CompareLocTid)
}

func (m *refMem) scanLocWithAncestors(loc path.Path) []Record {
	return m.scanFiltered(func(r Record) bool { return r.Loc.IsPrefixOf(loc) }, CompareTidLoc)
}

func (m *refMem) scanAllAfter(tid int64, loc path.Path) []Record {
	after := Record{Tid: tid, Loc: loc}
	return m.scanFiltered(func(r Record) bool { return CompareTidLoc(r, after) > 0 }, CompareTidLoc)
}

func (m *refMem) scanAll() []Record {
	return m.scanFiltered(func(Record) bool { return true }, CompareTidLoc)
}

func (m *refMem) tids() []int64 {
	out := []int64{}
	for _, r := range m.scanAll() {
		if len(out) == 0 || out[len(out)-1] != r.Tid {
			out = append(out, r.Tid)
		}
	}
	return out
}

func (m *refMem) maxTid() int64 {
	var maxT int64
	for _, r := range m.recs {
		maxT = max(maxT, r.Tid)
	}
	return maxT
}

func (m *refMem) bytes() int64 {
	var n int64
	for _, r := range m.recs {
		n += int64(r.EncodedSize())
	}
	return n
}

func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Tid == y.Tid && x.Op == y.Op && x.Loc.Equal(y.Loc) && x.Src.Equal(y.Src)
	})
}

// memLabels are the sibling labels of the random histories: byte-prefixes of
// one another (a, ab) and of a two-label path (a/b vs ab, a/b/c vs a/bc), the
// cases where a byte-wise and a label-wise ordering of locations disagree.
var memLabels = []string{"a", "ab", "b", "bc", "c"}

func memRandLoc(rng *rand.Rand) path.Path {
	p := path.New([]string{"T", "TT", "U"}[rng.Intn(3)])
	for d := rng.Intn(5); d > 0; d-- {
		p = p.Child(memLabels[rng.Intn(len(memLabels))])
	}
	return p
}

// memHistory draws n records as append batches: transactions of a few
// records whose ids mostly climb but now and then fall back to an old one
// (another session's lane, a replica's rewind repair) or below every stored
// one, at locations that collide often — a few hot ones in most
// transactions — and listed in location order only half the time. Some
// batches repeat a stored key; the stores must both refuse those.
func memHistory(rng *rand.Rand, n int) [][]Record {
	hot := []path.Path{path.MustParse("T/a"), path.MustParse("T/a/b"), path.MustParse("T/ab")}
	var batches [][]Record
	top := int64(0)
	for n > 0 {
		tid := top + 1
		switch x := rng.Intn(20); {
		case x == 0:
			tid = -int64(rng.Intn(3)) // 0, -1, -2: below everything
		case x < 4 && top > 0:
			tid = 1 + rng.Int63n(top)
		}
		top = max(top, tid)
		var batch []Record
		for k := 1 + rng.Intn(min(n, 8)); k > 0; k-- {
			r := Record{Tid: tid, Op: OpInsert, Loc: memRandLoc(rng)}
			if rng.Intn(3) == 0 {
				r.Loc = hot[rng.Intn(len(hot))]
			}
			if rng.Intn(2) == 0 {
				r.Op, r.Src = OpCopy, memRandLoc(rng).Child("s")
			}
			if !slices.ContainsFunc(batch, func(o Record) bool { return o.Loc.Equal(r.Loc) }) {
				batch = append(batch, r)
			}
		}
		if rng.Intn(2) == 0 {
			slices.SortFunc(batch, CompareTidLoc)
		}
		if rng.Intn(8) == 0 && len(batch) > 1 {
			batch[len(batch)-1].Tid = tid + 1 // a batch spanning two transactions
			top = max(top, tid+1)
		}
		batches = append(batches, batch)
		n -= len(batch)
	}
	return batches
}

// checkMemIndexes checks, white-box, what every read relies on: both indexes
// hold each record number once, in their order, in runs of legal size.
func checkMemIndexes(t *testing.T, b *MemBackend) {
	t.Helper()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for name, x := range map[string]*memIndex{"(Tid, Loc)": &b.tidLoc, "(Loc, Tid)": &b.locTid} {
		total := 0
		var prev *Record
		for i, run := range x.runs {
			if len(run) == 0 || len(run) > memRunMax {
				t.Fatalf("%s run %d holds %d record numbers", name, i, len(run))
			}
			total += len(run)
			for _, id := range run {
				if prev != nil && x.cmp(*prev, b.recs[id]) >= 0 {
					t.Fatalf("%s index out of order in run %d", name, i)
				}
				prev = &b.recs[id]
			}
		}
		if total != len(b.recs) {
			t.Fatalf("%s index holds %d of %d records", name, total, len(b.recs))
		}
	}
}

// checkMemAgainstRef compares every read method of b with the oracle: all of
// them at each of locs and at its neighbourhood (parent, a child, the root
// and depth-1 prefixes), at the transactions around each of tids, and
// ScanAllAfter from keys at, between, before and after the stored ones.
func checkMemAgainstRef(t *testing.T, b *MemBackend, ref *refMem, locs []path.Path, tids []int64) {
	t.Helper()
	ctx := context.Background()
	checkMemIndexes(t, b)
	scan := func(what string, got iter.Seq2[Record, error], want []Record) {
		t.Helper()
		recs, err := CollectScan(got)
		if err != nil || !sameRecords(recs, want) {
			t.Fatalf("%s over %d records:\n got %v (%v)\nwant %v", what, len(ref.recs), recs, err, want)
		}
	}
	if st, _ := b.Stat(ctx); st.Count != len(ref.recs) {
		t.Fatalf("Count = %d, want %d", st.Count, len(ref.recs))
	}
	if st, _ := b.Stat(ctx); st.Bytes != ref.bytes() {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, ref.bytes())
	}
	if st, _ := b.Stat(ctx); st.MaxTid != ref.maxTid() {
		t.Fatalf("MaxTid = %d, want %d", st.MaxTid, ref.maxTid())
	}
	if got, err := Tids(ctx, b); err != nil || !slices.Equal(got, ref.tids()) {
		t.Fatalf("Tids = %v (%v), want %v", got, err, ref.tids())
	}
	all := ref.scanAll()
	scan("ScanAll", b.Scan(ctx, All()), all)

	tids = append(slices.Clone(tids), math.MinInt64, 0, math.MaxInt64)
	for _, tid := range slices.Clone(tids) {
		tids = append(tids, tid-1, tid+1)
	}
	for _, tid := range tids {
		scan(fmt.Sprintf("ScanTid(%d)", tid), b.Scan(ctx, ByTid(tid)), ref.scanTid(tid))
	}
	locs = append(slices.Clone(locs), path.Root, path.New("T"), path.New("TT"), path.New("S"), path.New("V"))
	for _, loc := range slices.Clone(locs) {
		if loc.Len() > 1 {
			locs = append(locs, loc.MustParent())
		}
		locs = append(locs, loc.Child("a"), loc.Child("b").Child("c"))
	}
	for _, loc := range locs {
		scan(fmt.Sprintf("ScanLocPrefix(%q)", loc), b.Scan(ctx, ByPrefix(loc)), ref.scanLocPrefix(loc))
		scan(fmt.Sprintf("ScanLoc(%q)", loc), b.Scan(ctx, ByLoc(loc)), ref.scanLoc(loc))
		scan(fmt.Sprintf("ScanLocWithAncestors(%q)", loc), b.Scan(ctx, WithAncestors(loc)), ref.scanLocWithAncestors(loc))
		for _, tid := range tids {
			got, ok, err := Lookup(ctx, b, tid, loc)
			if want, wantOK := ref.lookup(tid, loc); err != nil || ok != wantOK || !sameRecords([]Record{got}, []Record{want}) {
				t.Fatalf("Lookup(%d, %q) = %v, %v, %v; want %v, %v", tid, loc, got, ok, err, want, wantOK)
			}
			got, ok, err = NearestAncestor(ctx, b, tid, loc)
			if want, wantOK := ref.nearestAncestor(tid, loc); err != nil || ok != wantOK || !sameRecords([]Record{got}, []Record{want}) {
				t.Fatalf("NearestAncestor(%d, %q) = %v, %v, %v; want %v, %v", tid, loc, got, ok, err, want, wantOK)
			}
			// (tid, loc) is a stored key, or falls between two, or lies
			// before the first or after the last.
			pos, _ := slices.BinarySearchFunc(all, Record{Tid: tid, Loc: loc}, CompareTidLoc)
			for pos < len(all) && CompareTidLoc(all[pos], Record{Tid: tid, Loc: loc}) <= 0 {
				pos++
			}
			scan(fmt.Sprintf("ScanAllAfter(%d, %q)", tid, loc), b.Scan(ctx, All().After(tid, loc)), all[pos:])
		}
	}
}

// TestMemMatchesReference: on seeded random histories the indexed store and
// the filter-and-sort oracle accept and refuse the same batches and answer
// every read alike, from the empty store through the sizes at which the
// (Loc, Tid) runs split.
func TestMemMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2006} {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewMemBackend(), &refMem{}
		checkMemAgainstRef(t, b, ref, nil, nil)
		refused := 0
		size := 3 * memRunMax
		if testing.Short() {
			size = 2*memRunMax + 100
		}
		history := memHistory(rng, size)
		for i, batch := range history {
			err, refErr := b.Append(ctx, batch), ref.append(batch)
			var dup, refDup *DupKeyError
			if (err == nil) != (refErr == nil) || errors.As(err, &dup) != errors.As(refErr, &refDup) {
				t.Fatalf("seed %d batch %d: Append = %v, the reference says %v", seed, i, err, refErr)
			}
			if err != nil {
				refused++
			}
			// Every read is checked while the store is small, then at a few
			// sizes, always around the batch just written.
			if i < 12 || i%97 == 0 || i == len(history)-1 {
				var locs []path.Path
				var tids []int64
				for _, r := range batch {
					locs, tids = append(locs, r.Loc), append(tids, r.Tid)
				}
				locs, tids = append(locs, memRandLoc(rng)), append(tids, rng.Int63n(int64(i+2)))
				checkMemAgainstRef(t, b, ref, locs, tids)
			}
		}
		g := provobs.Stats(provobs.SourceRegistries(b)...)
		if refused == 0 || g["mem.appends_out_of_order"] == 0 || len(b.locTid.runs) < 3 || len(b.tidLoc.runs) < 3 {
			t.Errorf("seed %d exercised too little: %d batches refused, %d records out of order, %d and %d runs",
				seed, refused, g["mem.appends_out_of_order"], len(b.tidLoc.runs), len(b.locTid.runs))
		}
	}
}

// TestMemAppendAtomicOnDupKey: a batch refused for a repeated key — inside
// the batch or against the store, after records that were fine, in order or
// out of order — leaves the records, both indexes and every counter as they
// were.
func TestMemAppendAtomicOnDupKey(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	b, ref := NewMemBackend(), &refMem{}
	for _, batch := range memHistory(rng, memRunMax+200) {
		if b.Append(ctx, batch) == nil {
			ref.append(batch) //nolint:errcheck // accepted by b, so by the oracle
		}
	}
	all := ref.scanAll()
	stored, last := all[len(all)/2], all[len(all)-1]
	fresh := func(tid int64, label string) Record {
		return Record{Tid: tid, Op: OpInsert, Loc: path.New("T", "fresh", label)}
	}
	before := provobs.Stats(provobs.SourceRegistries(b)...)
	for _, tc := range []struct {
		name  string
		batch []Record
		dup   bool
	}{
		{"in order, repeats itself", []Record{fresh(last.Tid+1, "x"), fresh(last.Tid+1, "y"), fresh(last.Tid+1, "y")}, true},
		{"in-order head, a stored key last", []Record{fresh(last.Tid+1, "x"), fresh(last.Tid+2, "y"), stored}, true},
		{"out of order, a stored key first", []Record{stored, fresh(stored.Tid, "x"), fresh(1, "y")}, true},
		{"out of order, repeats itself", []Record{fresh(stored.Tid, "x"), fresh(1, "y"), fresh(stored.Tid, "x")}, true},
		{"the last stored key again", []Record{last}, true},
		{"fine records, then an invalid one", []Record{fresh(last.Tid+1, "x"), {Tid: last.Tid + 1, Op: OpInsert}}, false},
	} {
		err := b.Append(ctx, tc.batch)
		var dup *DupKeyError
		if err == nil || errors.As(err, &dup) != tc.dup {
			t.Fatalf("%s: Append = %v", tc.name, err)
		}
		checkMemAgainstRef(t, b, ref, []path.Path{stored.Loc, path.New("T", "fresh")}, []int64{stored.Tid, last.Tid + 1})
	}
	after := provobs.Stats(provobs.SourceRegistries(b)...)
	if after["mem.appends_out_of_order"] != before["mem.appends_out_of_order"] {
		t.Errorf("refused batches moved mem.appends_out_of_order: %d → %d", before["mem.appends_out_of_order"], after["mem.appends_out_of_order"])
	}
	// And the store still takes the records the refused batches carried.
	ok := []Record{fresh(last.Tid+1, "x"), fresh(stored.Tid, "x"), fresh(1, "y")}
	if err := b.Append(ctx, ok); err != nil {
		t.Fatal(err)
	}
	ref.append(ok) //nolint:errcheck // accepted by b
	checkMemAgainstRef(t, b, ref, []path.Path{path.New("T", "fresh")}, []int64{1, stored.Tid})
}

// TestMemCursorSurvivesSplits: a cursor that goes back to the index for each
// chunk of a long answer keeps its snapshot while a thousand records land
// around its position — before it, after it, in the run it stopped in —
// splitting runs in both indexes between two of its visits.
func TestMemCursorSurvivesSplits(t *testing.T) {
	ctx := context.Background()
	for _, pause := range []int{1, scanWindowFirst, 5 * scanWindowFirst, memRunMax + 7} {
		rng := rand.New(rand.NewSource(int64(pause)))
		b, ref := NewMemBackend(), &refMem{}
		fill := func(n int) {
			for _, batch := range memHistory(rng, n) {
				if b.Append(ctx, batch) == nil {
					ref.append(batch) //nolint:errcheck // accepted by b, so by the oracle
				}
			}
		}
		fill(2 * memRunMax)
		for name, c := range map[string]struct {
			scan iter.Seq2[Record, error]
			ref  func() []Record
		}{
			"ScanAll":       {b.Scan(ctx, All()), ref.scanAll},
			"ScanAllAfter":  {b.Scan(ctx, All().After(3, path.New("T", "b"))), func() []Record { return ref.scanAllAfter(3, path.New("T", "b")) }},
			"ScanLocPrefix": {b.Scan(ctx, ByPrefix(path.New("T"))), func() []Record { return ref.scanLocPrefix(path.New("T")) }},
			"ScanLoc":       {b.Scan(ctx, ByLoc(path.New("T", "a"))), func() []Record { return ref.scanLoc(path.New("T", "a")) }},
		} {
			want := c.ref() // the snapshot is taken at the first pull, not when the cursor is built
			if len(want) < 2*scanWindowFirst {
				t.Fatalf("%s answers %d records: too few to pause in", name, len(want))
			}
			pause := min(pause, len(want)-1)
			var got []Record
			for r, err := range c.scan {
				if err != nil {
					t.Fatal(err)
				}
				if got = append(got, r); len(got) == pause {
					fill(2 * memRunMax)
				}
			}
			if !sameRecords(got, want) {
				t.Fatalf("%s, %d records appended after its record %d: the cursor yielded %d records, its snapshot holds %d",
					name, 2*memRunMax, pause, len(got), len(want))
			}
		}
		checkMemAgainstRef(t, b, ref, []path.Path{path.New("T", "a")}, []int64{3})
	}
}

// TestMemConcurrentAppendScan races appenders — each with its own lane of
// transaction ids, so most batches land in the middle of the (Tid, Loc)
// order — against readers draining every kind of cursor. A cursor
// must come out in its documented order whatever is appended under it, and
// the store must end up equal to the oracle. Run with -race.
func TestMemConcurrentAppendScan(t *testing.T) {
	ctx := context.Background()
	b := NewMemBackend()
	const writers, perWriter = 4, 300
	var wg, writing sync.WaitGroup
	batches := make([][][]Record, writers)
	for w := range batches {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			batch := []Record{{Tid: int64(w*perWriter + i + 1), Op: OpInsert, Loc: path.New("T", memLabels[w], fmt.Sprint(i))}}
			for k := rng.Intn(3); k > 0; k-- {
				batch = append(batch, Record{Tid: batch[0].Tid, Op: OpCopy, Loc: memRandLoc(rng).Child(fmt.Sprint("w", w, "-", i, "-", k)), Src: path.New("S", "x")})
			}
			batches[w] = append(batches[w], batch)
		}
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for _, batch := range batches[w] {
				if err := b.Append(ctx, batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			ordered := func(what string, scan iter.Seq2[Record, error], cmp func(a, c Record) int) {
				var prev *Record
				for rec, err := range scan {
					if err != nil {
						t.Errorf("%s: %v", what, err)
						return
					}
					if prev != nil && cmp(*prev, rec) >= 0 {
						t.Errorf("%s yielded %v after %v", what, rec, *prev)
						return
					}
					prev = &rec
				}
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				w, i := rng.Intn(writers), rng.Intn(perWriter)
				loc := path.New("T", memLabels[w], fmt.Sprint(i))
				ordered("ScanAll", b.Scan(ctx, All()), CompareTidLoc)
				ordered("ScanAllAfter", b.Scan(ctx, All().After(int64(w*perWriter+i), loc)), CompareTidLoc)
				ordered("ScanTid", b.Scan(ctx, ByTid(int64(w*perWriter+i+1))), CompareLocTid)
				ordered("ScanLoc", b.Scan(ctx, ByLoc(loc)), CompareTidLoc)
				ordered("ScanLocPrefix", b.Scan(ctx, ByPrefix(loc.Prefix(2))), CompareLocTid)
				ordered("ScanLocWithAncestors", b.Scan(ctx, WithAncestors(loc.Child("deep"))), CompareTidLoc)
				Lookup(ctx, b, int64(w*perWriter+i+1), loc)                        //nolint:errcheck // raced, not asserted
				NearestAncestor(ctx, b, int64(w*perWriter+i+1), loc.Child("deep")) //nolint:errcheck
				b.Stat(ctx)                                                        //nolint:errcheck
			}
		}(r)
	}
	writing.Wait()
	close(done)
	wg.Wait()
	ref := &refMem{}
	for _, lane := range batches {
		for _, batch := range lane {
			if err := ref.append(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if provobs.Stats(provobs.SourceRegistries(b)...)["mem.appends_out_of_order"] == 0 {
		t.Error("no append landed out of order: the race covered the in-order path only")
	}
	checkMemAgainstRef(t, b, ref, []path.Path{path.New("T", "a", "7"), path.New("T", "ab")}, []int64{1, perWriter, 2 * perWriter})
}

// TestMemRunsStayFull: keys that ascend leave full runs behind — 4 bytes of
// index per record and order — whether they extend the order (one session)
// or climb through the middle of it (two sessions with a lane of transaction
// ids each, taking turns).
func TestMemRunsStayFull(t *testing.T) {
	ctx := context.Background()
	b := NewMemBackend()
	const n = 6 * memRunMax
	for i := 0; i < n/2; i++ {
		for _, lane := range []int64{0, n} { // the first lane's keys all sort before the second's
			r := Record{Tid: lane + int64(i) + 1, Op: OpInsert, Loc: path.New("T", fmt.Sprintf("n%06d", i))}
			if err := b.Append(ctx, []Record{r}); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkMemIndexes(t, b)
	if got := len(b.tidLoc.runs); got > n/memRunMax+2 {
		t.Errorf("%d records in two ascending lanes fill %d (Tid, Loc) runs, want about %d", n, got, n/memRunMax)
	}
	if got := provobs.Stats(provobs.SourceRegistries(b)...)["mem.appends_out_of_order"]; got != n/2-1 {
		t.Errorf("mem.appends_out_of_order = %d, want the first lane's %d records after its first", got, n/2-1)
	}
}

// TestMemScanCostIndependentOfStoreSize: what a read examines is its answer
// plus two binary searches, whether the store holds a thousand records or
// sixty-four thousand. The filter-and-sort store examined all of them for
// each of the three scans.
func TestMemScanCostIndependentOfStoreSize(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1 << 10, 1 << 16} {
		if testing.Short() && n > 1<<10 {
			continue
		}
		b := NewMemBackend()
		// T/hot written by three transactions, 20 records under each T/e<tid>.
		batch := []Record{
			{Tid: 1, Op: OpInsert, Loc: path.New("T", "hot")},
			{Tid: 2, Op: OpInsert, Loc: path.New("T", "hot")},
			{Tid: 3, Op: OpInsert, Loc: path.New("T", "hot")},
		}
		for tid := int64(1); len(batch) < n; tid++ {
			e := path.New("T", fmt.Sprintf("e%06d", tid))
			for i := 0; i < 20 && len(batch) < n; i++ {
				batch = append(batch, Record{Tid: tid, Op: OpInsert, Loc: e.Child(fmt.Sprint("n", i))})
			}
		}
		rand.New(rand.NewSource(1)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		for len(batch) > 0 { // out of order: both indexes are built the hard way
			k := min(len(batch), 100)
			if err := b.Append(ctx, batch[:k]); err != nil {
				t.Fatal(err)
			}
			batch = batch[k:]
		}
		checkMemIndexes(t, b)
		all, err := CollectScan(b.Scan(ctx, All()))
		if err != nil || len(all) != n {
			t.Fatalf("ScanAll = %d records, %v; want %d", len(all), err, n)
		}
		slack := int64(2*bits.Len(uint(n-1)) + 8)
		cost := func(what string, answer int, read func() int) {
			t.Helper()
			before := provobs.Stats(provobs.SourceRegistries(b)...)["mem.recs_examined"]
			if got := read(); got != answer {
				t.Fatalf("%s at %d records answered %d records, want %d", what, n, got, answer)
			}
			if examined := provobs.Stats(provobs.SourceRegistries(b)...)["mem.recs_examined"] - before; examined > int64(answer)+slack {
				t.Errorf("%s at %d records examined %d records for an answer of %d (allowed: answer + %d)", what, n, examined, answer, slack)
			}
		}
		drain := func(scan iter.Seq2[Record, error]) func() int {
			return func() int {
				recs, err := CollectScan(scan)
				if err != nil {
					t.Fatal(err)
				}
				return len(recs)
			}
		}
		cost("ScanLoc", 3, drain(b.Scan(ctx, ByLoc(path.New("T", "hot")))))
		cost("ScanLocPrefix", 20, drain(b.Scan(ctx, ByPrefix(path.New("T", "e000007")))))
		from := all[n-3]
		cost("ScanAllAfter", 2, drain(b.Scan(ctx, All().After(from.Tid, from.Loc))))
		cost("MaxTid", 0, func() int { b.Stat(ctx); return 0 })                        //nolint:errcheck // cannot fail
		cost("Lookup", 1, func() int { Lookup(ctx, b, from.Tid, from.Loc); return 1 }) //nolint:errcheck
	}
}
