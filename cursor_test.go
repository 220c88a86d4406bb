package cpdb_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	cpdb "repro"

	"repro/internal/path"
	"repro/internal/provobs"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// ancestorStores opens every store shape that answers a WithAncestors scan
// with provstore.ScanAncestors — mem://, its four-shard form and rel:// —
// plain, and under a batching layer whose buffer is half flushed: the first
// half of recs is in the store, the second still buffered.
func ancestorStores(t *testing.T, recs []provstore.Record) map[string]cpdb.Backend {
	t.Helper()
	ctx := context.Background()
	stores := map[string]cpdb.Backend{}
	for _, dsn := range []string{"mem://", "mem://?shards=4", "rel://"} {
		for _, batched := range []bool{false, true} {
			open := dsn
			if dsn == "rel://" {
				open += t.TempDir() + "/prov.db?create=1"
			}
			b, err := cpdb.OpenBackend(open)
			if err != nil {
				t.Fatal(err)
			}
			name := dsn
			if batched {
				batching := provstore.NewBatching(b, 2*len(recs))
				b, name = batching, "batching over "+dsn
				if err := b.Append(ctx, recs[:len(recs)/2]); err != nil {
					t.Fatal(err)
				}
				if err := batching.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if err := b.Append(ctx, recs[len(recs)/2:]); err != nil {
					t.Fatal(err)
				}
				if batching.Pending() != len(recs)-len(recs)/2 {
					t.Fatalf("%s: %d records buffered, want half of %d", name, batching.Pending(), len(recs))
				}
			} else if err := b.Append(ctx, recs); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // scratch store
			stores[name] = b
		}
	}
	return stores
}

// ancestorWorkload is a seeded history in which the locations above a deep
// one hold anything from no record to several hundred — more than one cursor
// window of either store: T is written by every transaction, T/hot by every
// second one, the rest at random.
func ancestorWorkload() []provstore.Record {
	rng := rand.New(rand.NewSource(24))
	var recs []provstore.Record
	for tid := int64(1); tid <= 300; tid++ {
		locs := []path.Path{path.New("T")}
		if tid%2 == 0 {
			locs = append(locs, path.New("T", "hot"))
		}
		if tid%3 == 0 {
			locs = append(locs, path.New("T", "hot", "deep"))
		}
		for i := rng.Intn(6); i > 0; i-- {
			p := path.New("T")
			for d := 1 + rng.Intn(3); d > 0; d-- {
				p = p.Child([]string{"a", "ab", "b", "hot"}[rng.Intn(4)])
			}
			locs = append(locs, p)
		}
		for i, loc := range locs {
			if !slices.ContainsFunc(locs[:i], loc.Equal) {
				recs = append(recs, provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: loc})
			}
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// countdownCtx is a context that reads as cancelled from its n-th Err call
// on: a cancellation placed at every point a cursor looks for one — on entry
// to each probe, before each record — without a hook into the store.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestAncestorsOneImplementation: WithAncestors(loc), and the same resumed
// after a key, answer alike on every store shape — what a filter of the
// history and a sort say (refMem's method) — including a location with
// nothing at or above it, and end with the context's error wherever between
// two probes or two records the context is cancelled.
func TestAncestorsOneImplementation(t *testing.T) {
	recs := ancestorWorkload()
	oracle := func(spec provstore.ScanSpec) []provstore.Record {
		after, resumed := spec.ResumeKey()
		var out []provstore.Record
		for _, r := range recs {
			if r.Loc.IsPrefixOf(spec.Loc) && (!resumed || provstore.CompareTidLoc(r, after) > 0) {
				out = append(out, r)
			}
		}
		slices.SortFunc(out, provstore.CompareTidLoc)
		return out
	}
	var specs []provstore.ScanSpec
	for _, loc := range []path.Path{
		path.MustParse("T/hot/deep/leaf/x"), // 300 + 150 + 100 records above it, none at it
		path.MustParse("T/a/ab/b"),
		path.MustParse("T/hot"),
		path.MustParse("T"),
		path.MustParse("U/none/at/all"), // every probe empty
		path.Root,                       // no probe at all
	} {
		spec := provstore.WithAncestors(loc)
		specs = append(specs, spec,
			spec.After(math.MinInt64, path.Root),
			spec.After(150, path.MustParse("T")),          // a stored key, the first of its transaction
			spec.After(150, path.MustParse("T/hot")),      // between two probes of one transaction
			spec.After(150, path.MustParse("T/zz/zz")),    // not stored, after the whole transaction
			spec.After(299, path.MustParse("T/hot/zz")),   // leaves a handful
			spec.After(math.MaxInt64, path.New("T", "a")), // leaves nothing
		)
	}
	same := func(a, b []provstore.Record) bool {
		return slices.EqualFunc(a, b, func(x, y provstore.Record) bool { return x.Tid == y.Tid && x.Loc.Equal(y.Loc) && x.Op == y.Op })
	}
	for name, b := range ancestorStores(t, recs) {
		for _, spec := range specs {
			want := oracle(spec)
			got, err := provstore.CollectScan(b.Scan(context.Background(), spec))
			if err != nil || !same(got, want) {
				t.Fatalf("%s: %v answered %d records (%v), the history holds %d:\n got %v\nwant %v", name, spec, len(got), err, len(want), got, want)
			}
		}
		// Cancelled at the k-th look at the context: whatever came out before
		// the error is the head of the answer, and nothing comes after it.
		spec := provstore.WithAncestors(path.MustParse("T/hot/deep/leaf")).After(290, path.Root)
		want := oracle(spec)
		for k := 0; ; k++ {
			ctx := &countdownCtx{Context: context.Background(), left: k}
			var got []provstore.Record
			var ended error
			for r, err := range b.Scan(ctx, spec) {
				if ended != nil {
					t.Fatalf("%s: cancelled at check %d: yielded %v, %v after the error", name, k, r, err)
				}
				if ended = err; err == nil {
					got = append(got, r)
				}
			}
			if ended == nil {
				if !same(got, want) {
					t.Fatalf("%s: never cancelled (%d checks): %v, want %v", name, k, got, want)
				}
				break
			}
			if !errors.Is(ended, context.Canceled) || len(got) > len(want) || !same(got, want[:len(got)]) {
				t.Fatalf("%s: cancelled at check %d: %v then %v; the answer is %v", name, k, got, ended, want)
			}
			if k > 10*len(want)+100 {
				t.Fatalf("%s: still cancelled at check %d of an answer of %d records", name, k, len(want))
			}
		}
	}
}

// TestAncestorsAndBatchingScansStartNoGoroutine: a WithAncestors scan gathers
// its probes and the batching layer merges its buffer with a loop, so neither
// has a goroutine or a coroutine behind it while the consumer is mid-stream.
func TestAncestorsAndBatchingScansStartNoGoroutine(t *testing.T) {
	recs := ancestorWorkload()
	stores := ancestorStores(t, recs)
	deep := provstore.WithAncestors(path.MustParse("T/hot/deep/leaf"))
	for name, spec := range map[string]provstore.ScanSpec{
		"rel://":                        deep,
		"mem://?shards=4":               deep,
		"batching over mem://":          provstore.All(),
		"batching over rel://":          deep,
		"batching over mem://?shards=4": deep,
	} {
		base, n := runtime.NumGoroutine(), 0
		for _, err := range stores[name].Scan(context.Background(), spec) {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n%100 == 1 && runtime.NumGoroutine() != base {
				t.Fatalf("%s: %d goroutines at record %d of %v, %d before the scan", name, runtime.NumGoroutine(), n, spec, base)
			}
		}
		if n < 300 {
			t.Fatalf("%s: %v answered %d records, too few to be mid-stream in", name, spec, n)
		}
	}
}

// TestAsofMaxInt64 asks trace, hist, src and mod as of the largest tid
// there is, in process over mem:// and rel:// and through a cpdb:// daemon:
// each must answer exactly as it does as of the store's newest transaction,
// and return. A chain step that stepped through every tid up to its horizon
// would never return; each question runs in a goroutine, failed at 10 s.
func TestAsofMaxInt64(t *testing.T) {
	ctx := context.Background()
	daemon, _ := startStatService(t, provstore.NewMemBackend())
	for _, dsn := range []string{"mem://", "rel://" + t.TempDir() + "/prov.db?create=1", daemon} {
		b, locs := queryStore(t, dsn, 40, "")
		st, err := b.Stat(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(locs); i += 37 {
			for _, op := range []string{provplan.OpTrace, provplan.OpHist, provplan.OpSrc, provplan.OpMod} {
				inf, now := *relQuery(op, locs, i), *relQuery(op, locs, i)
				inf.AsOf, now.AsOf = math.MaxInt64, st.MaxTid
				type answer struct {
					got, want *provplan.Result
					err       error
				}
				done := make(chan answer, 1)
				go func() {
					var a answer
					if a.got, a.err = provplan.Collect(ctx, b, &inf); a.err == nil {
						a.want, a.err = provplan.Collect(ctx, b, &now)
					}
					done <- a
				}()
				select {
				case a := <-done:
					if a.err != nil {
						t.Fatalf("%s: %s: %v", dsn, &inf, a.err)
					}
					if !reflect.DeepEqual(a.got, a.want) {
						t.Errorf("%s: %s = %+v, %s = %+v", dsn, &inf, a.got, &now, a.want)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: %s did not return in 10 s", dsn, &inf)
				}
			}
		}
	}
}

// TestTraceAsofStopsAtHorizon: a trace as of an early transaction reads the
// records at its location's ancestors up to that transaction, not every
// record written there since. The store holds 5 000 records: T written by
// each of 2 000 transactions, T/hot by every second one, and one elsewhere
// per transaction; trace T/hot/x asof 100 has 1 900 + 950 later records at
// its ancestors. Counted in records read, not time.
func TestTraceAsofStopsAtHorizon(t *testing.T) {
	ctx := context.Background()
	var recs []provstore.Record
	for tid := int64(1); tid <= 2000; tid++ {
		recs = append(recs,
			provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.New("T")},
			provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.New("S", "n"+strconv.FormatInt(tid, 10))})
		if tid%2 == 0 {
			recs = append(recs, provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.New("T", "hot")})
		}
	}
	for _, c := range []struct {
		dsn, counter string
		most         int64
	}{
		{"rel://" + t.TempDir() + "/prov.db?create=1", "rel.rows_decoded", 450},
		{"mem://?shards=4", "mem.recs_examined", 500},
		{"mem://", "mem.recs_examined", 500},
	} {
		b, err := cpdb.OpenBackend(c.dsn)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Append(ctx, recs); err != nil {
			t.Fatal(err)
		}
		before := provobs.Stats(provstore.Registries(b)...)[c.counter]
		res, err := provplan.Collect(ctx, b, provplan.MustParse("trace T/hot/x asof 100"))
		if err != nil {
			t.Fatal(err)
		}
		read := provobs.Stats(provstore.Registries(b)...)[c.counter] - before
		if len(res.Trace.Events) != 1 || res.Trace.Events[0].Tid != 100 {
			t.Fatalf("%s: trace T/hot/x asof 100 = %+v, want the insert of transaction 100", c.dsn, res.Trace)
		}
		if read > c.most {
			t.Errorf("%s: trace T/hot/x asof 100 read %d records (%s), want at most %d", c.dsn, read, c.counter, c.most)
		}
		if err := provstore.Close(b); err != nil {
			t.Fatal(err)
		}
	}
}
