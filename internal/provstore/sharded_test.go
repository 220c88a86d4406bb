package provstore_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtest"
)

// TestShardForProperties: routing is deterministic, in range, and depends
// only on the root-relative path, not the database name.
func TestShardForProperties(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 8} {
		seenShard := make(map[int]bool)
		for i := 0; i < 200; i++ {
			p := path.New("T", fmt.Sprintf("c%d", i), "y")
			s := provstore.ShardFor(p, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardFor(%v, %d) = %d out of range", p, n, s)
			}
			if s != provstore.ShardFor(p, n) {
				t.Fatalf("ShardFor(%v, %d) not deterministic", p, n)
			}
			q := path.New("OtherDB", fmt.Sprintf("c%d", i), "y")
			if provstore.ShardFor(q, n) != s {
				t.Errorf("shard depends on database name: %v vs %v", p, q)
			}
			seenShard[s] = true
		}
		if n > 1 && len(seenShard) < 2 {
			t.Errorf("n=%d: 200 paths all landed on one shard", n)
		}
	}
	if got := provstore.ShardFor(path.New("T", "x"), 0); got != 0 {
		t.Errorf("ShardFor with n=0 = %d, want 0", got)
	}
}

// runMethod drives the Figure 3 sequence under method m against the given
// backend and returns the stored table in (Tid, Loc) order.
func runMethod(t *testing.T, m provstore.Method, b provstore.Backend, commitEvery int) []provstore.Record {
	t.Helper()
	tr := provstore.MustNew(m, provstore.Config{Backend: b, StartTid: figures.FirstTid})
	if _, err := provtest.Run(tr, figures.Forest(), figures.Sequence(), commitEvery); err != nil {
		t.Fatal(err)
	}
	if err := provstore.Flush(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	recs, err := provtest.AllSorted(b)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestShardedBackendEquivalence: for every method, a sharded (and batched)
// backend stores and returns exactly the same provenance table as a single
// MemBackend — sharding is pure partitioning.
func TestShardedBackendEquivalence(t *testing.T) {
	for _, m := range provstore.AllMethods {
		for _, commitEvery := range []int{0, 2} {
			want := runMethod(t, m, provstore.NewMemBackend(), commitEvery)
			backends := map[string]provstore.Backend{
				"sharded4":         provstore.NewShardedMem(4),
				"sharded3-batched": provstore.NewBatching(provstore.NewShardedMem(3), 4),
				"batched":          provstore.NewBatching(provstore.NewMemBackend(), 8),
			}
			for name, b := range backends {
				got := runMethod(t, m, b, commitEvery)
				if len(got) != len(want) {
					t.Fatalf("%v/%s commitEvery=%d: %d records, want %d", m, name, commitEvery, len(got), len(want))
				}
				for i := range want {
					if got[i].String() != want[i].String() {
						t.Errorf("%v/%s commitEvery=%d: record %d = %s, want %s", m, name, commitEvery, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedBackendQueryEquivalence: every Backend query surface returns
// identical rows in identical order from the sharded store.
func TestShardedBackendQueryEquivalence(t *testing.T) {
	mem := provstore.NewMemBackend()
	sh := provstore.NewShardedMem(5)
	_ = runMethod(t, provstore.Naive, mem, 0)
	_ = runMethod(t, provstore.Naive, sh, 0)

	recs, err := provtest.AllSorted(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty store")
	}
	check := func(name string, got, want []provstore.Record, err1, err2 error) {
		t.Helper()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errors %v, %v", name, err1, err2)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Errorf("%s: record %d = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
	tids, _ := provstore.Tids(context.Background(), mem)
	stids, err := provstore.Tids(context.Background(), sh)
	if err != nil || len(stids) != len(tids) {
		t.Fatalf("Tids = %v (err %v), want %v", stids, err, tids)
	}
	for _, tid := range tids {
		got, err1 := provstore.CollectScan(sh.Scan(context.Background(), provstore.ByTid(tid)))
		want, err2 := provstore.CollectScan(mem.Scan(context.Background(), provstore.ByTid(tid)))
		check(fmt.Sprintf("ScanTid(%d)", tid), got, want, err1, err2)
	}
	for _, r := range recs {
		got, err1 := provstore.CollectScan(sh.Scan(context.Background(), provstore.ByLoc(r.Loc)))
		want, err2 := provstore.CollectScan(mem.Scan(context.Background(), provstore.ByLoc(r.Loc)))
		check("ScanLoc "+r.Loc.String(), got, want, err1, err2)

		got, err1 = provstore.CollectScan(sh.Scan(context.Background(), provstore.WithAncestors(r.Loc)))
		want, err2 = provstore.CollectScan(mem.Scan(context.Background(), provstore.WithAncestors(r.Loc)))
		check("ScanLocWithAncestors "+r.Loc.String(), got, want, err1, err2)

		grec, gok, err1 := provstore.Lookup(context.Background(), sh, r.Tid, r.Loc)
		wrec, wok, err2 := provstore.Lookup(context.Background(), mem, r.Tid, r.Loc)
		if err1 != nil || err2 != nil || gok != wok || grec.String() != wrec.String() {
			t.Errorf("Lookup(%d, %s) = %v/%v, want %v/%v", r.Tid, r.Loc, grec, gok, wrec, wok)
		}

		deep := r.Loc.Child("deep").Child("deeper")
		grec, gok, err1 = provstore.NearestAncestor(context.Background(), sh, r.Tid, deep)
		wrec, wok, err2 = provstore.NearestAncestor(context.Background(), mem, r.Tid, deep)
		if err1 != nil || err2 != nil || gok != wok || grec.String() != wrec.String() {
			t.Errorf("NearestAncestor(%d, %s) mismatch", r.Tid, deep)
		}
	}
	for _, prefix := range []path.Path{path.New("T"), path.New("T", "c2")} {
		got, err1 := provstore.CollectScan(sh.Scan(context.Background(), provstore.ByPrefix(prefix)))
		want, err2 := provstore.CollectScan(mem.Scan(context.Background(), provstore.ByPrefix(prefix)))
		check("ScanLocPrefix "+prefix.String(), got, want, err1, err2)
	}
	got, err1 := sh.Stat(context.Background())
	want, err2 := mem.Stat(context.Background())
	if err1 != nil || err2 != nil || got.Count != want.Count {
		t.Errorf("Count = %d, want %d", got.Count, want.Count)
	}
	if got.Bytes != want.Bytes {
		t.Errorf("Bytes = %d, want %d", got.Bytes, want.Bytes)
	}
	if got.MaxTid != want.MaxTid {
		t.Errorf("MaxTid = %d, want %d", got.MaxTid, want.MaxTid)
	}
}

// TestCrossShardHistMergeOrdering: a copy chain whose hops land on
// different shards must trace back in exact reverse-chronological order —
// the scatter-gather merge may not reorder the chain.
func TestCrossShardHistMergeOrdering(t *testing.T) {
	const shards = 4
	const hops = 9
	mem := provstore.NewMemBackend()
	sh := provstore.NewShardedMem(shards)

	// tid 1 inserts T/n0; tid k (k ≥ 2) copies T/n(k-2) → T/n(k-1).
	locs := make([]path.Path, hops+1)
	for i := range locs {
		locs[i] = path.New("T", fmt.Sprintf("n%d", i))
	}
	used := make(map[int]bool)
	for _, l := range locs {
		used[provstore.ShardFor(l, shards)] = true
	}
	if len(used) < 2 {
		t.Fatalf("chain locations all hash to one shard; pick different labels")
	}
	for _, b := range []provstore.Backend{mem, sh} {
		if err := b.Append(context.Background(), []provstore.Record{{Tid: 1, Op: provstore.OpInsert, Loc: locs[0]}}); err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= hops+1; k++ {
			rec := provstore.Record{Tid: int64(k), Op: provstore.OpCopy, Loc: locs[k-1], Src: locs[k-2]}
			if err := b.Append(context.Background(), []provstore.Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantHist := make([]int64, 0, hops)
	for k := hops + 1; k >= 2; k-- {
		wantHist = append(wantHist, int64(k))
	}
	for name, b := range map[string]provstore.Backend{"mem": mem, "sharded": sh} {
		run := func(op string, p path.Path) *provplan.Result {
			res, err := provplan.Collect(context.Background(), b, &provplan.Query{Op: op, Path: p.String()})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if hist := run(provplan.OpHist, locs[hops]).Tids; fmt.Sprint(hist) != fmt.Sprint(wantHist) {
			t.Errorf("%s: Hist = %v, want %v (most recent first)", name, hist, wantHist)
		}
		if src := run(provplan.OpSrc, locs[hops]); !src.Found || src.Value != 1 {
			t.Errorf("%s: Src = %d/%v, want 1", name, src.Value, src.Found)
		}
		if mod := run(provplan.OpMod, path.New("T")).Tids; len(mod) != hops+1 {
			t.Errorf("%s: Mod lists %d txns, want %d", name, len(mod), hops+1)
		}
	}
}

// TestBatchingBackend: buffering, read-through visibility, duplicate
// rejection against both buffer and store, and explicit Flush.
func TestBatchingBackend(t *testing.T) {
	inner := provstore.NewMemBackend()
	b := provstore.NewBatching(inner, 3)
	rec := func(tid int64, label string) provstore.Record {
		return provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.New("T", label)}
	}
	if err := b.Append(context.Background(), []provstore.Record{rec(1, "a")}); err != nil {
		t.Fatal(err)
	}
	if st, _ := inner.Stat(context.Background()); st.Count != 0 {
		t.Fatalf("flushed too early: inner has %d", st.Count)
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d", b.Pending())
	}
	// Duplicate against the buffer.
	var dup *provstore.DupKeyError
	if err := b.Append(context.Background(), []provstore.Record{rec(1, "a")}); !errors.As(err, &dup) {
		t.Fatalf("buffer dup: %v", err)
	}
	// Read-through: a query sees the buffered record.
	if st, err := b.Stat(context.Background()); err != nil || st.Count != 1 {
		t.Fatalf("read-through Count = %d, %v", st.Count, err)
	}
	if b.Pending() != 0 {
		t.Fatalf("read did not flush: Pending = %d", b.Pending())
	}
	// Duplicate against the store after flush.
	if err := b.Append(context.Background(), []provstore.Record{rec(1, "a")}); !errors.As(err, &dup) {
		t.Fatalf("store dup: %v", err)
	}
	// Batch threshold flush.
	if err := b.Append(context.Background(), []provstore.Record{rec(2, "a"), rec(2, "b"), rec(2, "c")}); err != nil {
		t.Fatal(err)
	}
	if st, _ := inner.Stat(context.Background()); st.Count != 4 {
		t.Fatalf("threshold flush missing: inner has %d", st.Count)
	}
	// Explicit flush of a partial batch.
	if err := b.Append(context.Background(), []provstore.Record{rec(3, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := inner.Stat(context.Background()); st.Count != 5 {
		t.Fatalf("explicit flush missing: inner has %d", st.Count)
	}
	// A rejected batch buffers nothing.
	if err := b.Append(context.Background(), []provstore.Record{rec(4, "x"), rec(4, "x")}); !errors.As(err, &dup) {
		t.Fatal("intra-batch dup accepted")
	}
	if b.Pending() != 0 {
		t.Errorf("rejected batch left %d pending", b.Pending())
	}
}

// TestNewShardedValidation: constructor errors.
func TestNewShardedValidation(t *testing.T) {
	if _, err := provstore.NewSharded(); err == nil {
		t.Error("NewSharded() accepted zero shards")
	}
	if _, err := provstore.NewSharded(provstore.NewMemBackend(), nil); err == nil {
		t.Error("NewSharded accepted a nil shard")
	}
	if len(provstore.NewShardedMem(0).Below()) != 1 {
		t.Error("NewShardedMem(0) should clamp to 1")
	}
}
