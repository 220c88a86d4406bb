package provstore

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"testing"

	"repro/internal/path"
	"repro/internal/provobs"
)

// scanFixture loads a deterministic record set spanning several
// transactions, locations and shards into b.
func scanFixture(t *testing.T, b Backend) []Record {
	t.Helper()
	var recs []Record
	for tid := int64(1); tid <= 5; tid++ {
		for i := 0; i < 7; i++ {
			recs = append(recs, Record{
				Tid: tid,
				Op:  OpInsert,
				Loc: path.New("T", fmt.Sprintf("s%d", i%3), fmt.Sprintf("n%d-%d", tid, i)),
			})
		}
	}
	if err := b.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// scanStores builds one instance of every composable in-memory store shape.
func scanStores() map[string]Backend {
	return map[string]Backend{
		"mem":              NewMemBackend(),
		"sharded":          NewShardedMem(4),
		"batching":         NewBatching(NewMemBackend(), 8),
		"batching+sharded": NewBatching(NewShardedMem(4), 8),
	}
}

// TestScanAllOrderAndEquivalence: every store shape must stream the whole
// relation in (Tid, Loc) order, with identical content across shapes.
func TestScanAllOrderAndEquivalence(t *testing.T) {
	ctx := context.Background()
	var want []Record
	for name, b := range scanStores() {
		recs := scanFixture(t, b)
		got, err := CollectScan(b.Scan(ctx, All()))
		if err != nil {
			t.Fatalf("%s: ScanAll: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: ScanAll yielded %d records, want %d", name, len(got), len(recs))
		}
		for i := 1; i < len(got); i++ {
			if CompareTidLoc(got[i-1], got[i]) >= 0 {
				t.Fatalf("%s: ScanAll out of order at %d: %v !< %v", name, i, got[i-1], got[i])
			}
		}
		if want == nil {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: ScanAll differs from mem:\n%v\n%v", name, got, want)
		}
	}
}

// TestMergeScansDedupAndErrors covers the merge's key collapse and error
// propagation.
func TestMergeScansDedupAndErrors(t *testing.T) {
	r := func(tid int64, loc string) Record {
		return Record{Tid: tid, Op: OpInsert, Loc: path.MustParse(loc)}
	}
	a := []Record{r(1, "T/a"), r(2, "T/b"), r(4, "T/d")}
	b := []Record{r(2, "T/b"), r(3, "T/c")} // duplicate key (2, T/b)
	got, err := CollectScan(MergeScans(CompareTidLoc, ScanSlice(a), ScanSlice(b)))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]Record{r(1, "T/a"), r(2, "T/b"), r(3, "T/c"), r(4, "T/d")}) {
		t.Errorf("merge with duplicate = %v", got)
	}

	boom := errors.New("boom")
	if _, err := CollectScan(MergeScans(CompareTidLoc, ScanSlice(a), ScanError(boom))); !errors.Is(err, boom) {
		t.Errorf("merge with failing input: %v", err)
	}
	if got, err := CollectScan(MergeScans(CompareTidLoc)); err != nil || len(got) != 0 {
		t.Errorf("empty merge = %v, %v", got, err)
	}
}

// TestMergeBuffered covers the batching layer's read-through merge, a loop
// over the inner cursor with a sorted slice on the other side: each side
// alone, the two interleaved, a key on both sides, an inner error, per-record
// cancellation and an early break.
func TestMergeBuffered(t *testing.T) {
	r := func(tid int64, loc string) Record {
		return Record{Tid: tid, Op: OpInsert, Loc: path.MustParse(loc)}
	}
	boom := errors.New("boom")
	// failing yields recs, then boom, and would go on to T/never.
	failing := func(recs ...Record) iter.Seq2[Record, error] {
		return func(yield func(Record, error) bool) {
			for _, rec := range recs {
				if !yield(rec, nil) {
					return
				}
			}
			if yield(Record{}, boom) {
				yield(r(99, "T/never"), nil)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		buf     []Record
		inner   iter.Seq2[Record, error]
		want    []Record
		wantErr error
	}{
		{"both empty", nil, ScanSlice(nil), nil, nil},
		{"buffer only", []Record{r(1, "T/a"), r(2, "T/b")}, ScanSlice(nil), []Record{r(1, "T/a"), r(2, "T/b")}, nil},
		{"cursor only", nil, ScanSlice([]Record{r(1, "T/a"), r(2, "T/b")}), []Record{r(1, "T/a"), r(2, "T/b")}, nil},
		{"interleaved",
			[]Record{r(1, "T/b"), r(3, "T/a"), r(9, "T/z")},
			ScanSlice([]Record{r(1, "T/a"), r(2, "T/a"), r(4, "T/a")}),
			[]Record{r(1, "T/a"), r(1, "T/b"), r(2, "T/a"), r(3, "T/a"), r(4, "T/a"), r(9, "T/z")}, nil},
		{"a key on both sides is yielded once",
			[]Record{r(2, "T/b"), r(3, "T/c")},
			ScanSlice([]Record{r(1, "T/a"), r(2, "T/b"), r(4, "T/d")}),
			[]Record{r(1, "T/a"), r(2, "T/b"), r(3, "T/c"), r(4, "T/d")}, nil},
		{"an inner error ends the stream, buffered records or not",
			[]Record{r(1, "T/b"), r(5, "T/e"), r(6, "T/f")},
			failing(r(1, "T/a"), r(2, "T/a")),
			[]Record{r(1, "T/a"), r(1, "T/b"), r(2, "T/a")}, boom},
		{"an inner error before the first record", []Record{r(1, "T/b")}, ScanError(boom), nil, boom},
	} {
		var got []Record
		var gotErr error
		for rec, err := range mergeBuffered(context.Background(), CompareTidLoc, tc.buf, tc.inner) {
			if gotErr != nil {
				t.Errorf("%s: yielded %v, %v after the error", tc.name, rec, err)
			}
			if gotErr = err; err == nil {
				got = append(got, rec)
			}
		}
		if !sameRecords(got, tc.want) || !errors.Is(gotErr, tc.wantErr) {
			t.Errorf("%s: merged to %v, %v; want %v, %v", tc.name, got, gotErr, tc.want, tc.wantErr)
		}
	}

	// Cancellation is observed before every record, whichever side it is on.
	buf := []Record{r(1, "T/b"), r(2, "T/b"), r(3, "T/b")}
	inner := []Record{r(1, "T/a"), r(2, "T/a"), r(3, "T/a")}
	for stopAt := 0; stopAt <= len(buf)+len(inner); stopAt++ {
		ctx, cancel := context.WithCancel(context.Background())
		n, ended := 0, error(nil)
		if stopAt == 0 {
			cancel()
		}
		for _, err := range mergeBuffered(ctx, CompareTidLoc, buf, ScanSlice(inner)) {
			if ended = err; err != nil {
				continue
			}
			if n++; n == stopAt {
				cancel()
			}
		}
		cancel()
		if want := min(stopAt, len(buf)+len(inner)); n != want || (stopAt < len(buf)+len(inner)) != errors.Is(ended, context.Canceled) {
			t.Errorf("cancelled after record %d: %d records, then %v", stopAt, n, ended)
		}
	}

	// An early break releases the inner cursor then and there, and there was
	// never a goroutine behind the merge to release.
	base := runtime.NumGoroutine()
	released := false
	held := func(yield func(Record, error) bool) {
		defer func() { released = true }()
		for _, rec := range inner {
			if !yield(rec, nil) {
				return
			}
		}
	}
	for range mergeBuffered(context.Background(), CompareTidLoc, buf, held) {
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%d goroutines while the merge is mid-stream, %d before it", n, base)
		}
		break
	}
	if !released {
		t.Error("breaking out of the merge left the inner cursor open")
	}
}

// TestCursorEarlyBreakReleases: breaking out of a scan loop after one
// record must release everything the cursor holds — the Pull2 coroutines
// behind sharded/batching merges, and any lock, proven by a write
// succeeding immediately afterwards. Runs under -race in CI.
func TestCursorEarlyBreakReleases(t *testing.T) {
	ctx := context.Background()
	for name, b := range scanStores() {
		t.Run(name, func(t *testing.T) {
			scanFixture(t, b)
			base := runtime.NumGoroutine()
			scans := map[string]iter.Seq2[Record, error]{
				"ScanAll":              b.Scan(ctx, All()),
				"ScanTid":              b.Scan(ctx, ByTid(2)),
				"ScanLocPrefix":        b.Scan(ctx, ByPrefix(path.MustParse("T/s1"))),
				"ScanLocWithAncestors": b.Scan(ctx, WithAncestors(path.MustParse("T/s1/n1-1"))),
			}
			for sname, scan := range scans {
				n := 0
				for _, err := range scan {
					if err != nil {
						t.Fatalf("%s: %v", sname, err)
					}
					n++
					if n == 1 {
						break
					}
				}
				if n != 1 {
					t.Fatalf("%s yielded %d records before break", sname, n)
				}
			}
			// No coroutine/goroutine behind any broken cursor may survive.
			waitGoroutines(t, base)
			// And no lock is still held: a write proceeds.
			if err := b.Append(ctx, []Record{{Tid: 9, Op: OpInsert, Loc: path.MustParse("T/after-break")}}); err != nil {
				t.Fatalf("append after broken scans: %v", err)
			}
		})
	}
}

// TestBatchingScanReadsThroughWithoutFlush: scans must see buffered records
// merged in order with the store — without forcing the flush the old
// read-through paid, and without duplicates when the buffer flushes midway.
func TestBatchingScanReadsThroughWithoutFlush(t *testing.T) {
	ctx := context.Background()
	inner := NewMemBackend()
	b := NewBatching(inner, 100)
	if err := b.Append(ctx, []Record{
		{Tid: 2, Op: OpInsert, Loc: path.MustParse("T/b")},
		{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/a")},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := CollectScan(b.Scan(ctx, All()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Tid != 1 || got[1].Tid != 2 {
		t.Fatalf("buffered scan = %v", got)
	}
	if b.Pending() != 2 {
		t.Fatalf("scan flushed the buffer (pending=%d, want 2)", b.Pending())
	}
	if st, _ := inner.Stat(ctx); st.Count != 0 {
		t.Fatalf("scan pushed %d records to the store", st.Count)
	}

	// A flush between cursor construction and consumption must not
	// duplicate records: the merge collapses equal keys.
	cur := b.Scan(ctx, All())
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err = CollectScan(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scan racing flush yielded %d records, want 2: %v", len(got), got)
	}
}

// TestScanSnapshotIsolation: a mem cursor of any kind streams the store as it
// was at its first pull — records appended while it is being consumed never
// appear in it, whether they extend the (Tid, Loc) order or land in the
// middle of it, ahead of the cursor's position, and the next cursor shows
// them all.
func TestScanSnapshotIsolation(t *testing.T) {
	ctx := context.Background()
	hot := path.MustParse("T/s1/hot")
	scans := map[string]func(b Backend) iter.Seq2[Record, error]{
		"ScanAll":              func(b Backend) iter.Seq2[Record, error] { return b.Scan(ctx, All()) },
		"ScanAllAfter":         func(b Backend) iter.Seq2[Record, error] { return b.Scan(ctx, All().After(2, hot)) },
		"ScanTid":              func(b Backend) iter.Seq2[Record, error] { return b.Scan(ctx, ByTid(5)) },
		"ScanLoc":              func(b Backend) iter.Seq2[Record, error] { return b.Scan(ctx, ByLoc(hot)) },
		"ScanLocPrefix":        func(b Backend) iter.Seq2[Record, error] { return b.Scan(ctx, ByPrefix(hot.Prefix(2))) },
		"ScanLocWithAncestors": func(b Backend) iter.Seq2[Record, error] { return b.Scan(ctx, WithAncestors(hot.Child("x"))) },
	}
	// Both batches hold a record every one of the scans would select.
	appends := map[string][]Record{
		"in-order": {
			{Tid: 5, Op: OpInsert, Loc: path.MustParse("T/s2/zz")},
			{Tid: 9, Op: OpInsert, Loc: hot},
			{Tid: 9, Op: OpInsert, Loc: hot.Child("x")},
		},
		"out-of-order": {
			{Tid: 3, Op: OpInsert, Loc: hot},
			{Tid: 5, Op: OpInsert, Loc: path.MustParse("T/s0")},
			{Tid: 0, Op: OpInsert, Loc: hot.Prefix(2)},
		},
	}
	for sname, scan := range scans {
		for aname, late := range appends {
			t.Run(sname+"/"+aname, func(t *testing.T) {
				b := NewMemBackend()
				scanFixture(t, b)
				for tid := int64(1); tid <= 5; tid++ {
					if tid == 3 {
						continue
					}
					if err := b.Append(ctx, []Record{{Tid: tid, Op: OpInsert, Loc: hot}}); err != nil {
						t.Fatal(err)
					}
				}
				want, err := CollectScan(scan(b))
				if err != nil || len(want) < 2 {
					t.Fatalf("fixture answers %d records, %v", len(want), err)
				}
				var got []Record
				for r, err := range scan(b) {
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
					if len(got) == 1 {
						before := provobs.Stats(Registries(b)...)["mem.appends_out_of_order"]
						if err := b.Append(ctx, late); err != nil {
							t.Fatal(err)
						}
						if ooo := provobs.Stats(Registries(b)...)["mem.appends_out_of_order"] > before; ooo != (aname == "out-of-order") {
							t.Fatalf("the %s append landed out of order: %v", aname, ooo)
						}
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("a mid-iteration append changed the cursor:\n got %v\nwant %v", got, want)
				}
				after, err := CollectScan(scan(b))
				if err != nil || len(after) <= len(want) {
					t.Fatalf("the next cursor shows %d records (%v), want more than %d", len(after), err, len(want))
				}
			})
		}
	}
}

// ScanAllAfter seek equivalence (every key, synthetic keys, the unflushed
// batching buffer) and cancellation — mid-stream and pre-cancelled — are
// pinned for every store shape by the shared conformance suite
// (TestConformance* in conformance_test.go).
