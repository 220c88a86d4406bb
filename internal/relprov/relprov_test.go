package relprov_test

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/relprov"
	"repro/internal/relstore"
)

func newBackend(t *testing.T) *relprov.Backend {
	t.Helper()
	b, err := relprov.OpenFile(filepath.Join(t.TempDir(), "prov.rel"), relprov.Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func rec(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
	r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

func TestRelProvBasics(t *testing.T) {
	b := newBackend(t)
	if err := b.Append(context.Background(), []provstore.Record{
		rec(1, provstore.OpCopy, "T/a", "S/x"),
		rec(1, provstore.OpInsert, "T/a/b/c", ""),
		rec(2, provstore.OpDelete, "T/a", ""),
	}); err != nil {
		t.Fatal(err)
	}
	r, ok, err := provstore.Lookup(context.Background(), b, 1, path.MustParse("T/a"))
	if err != nil || !ok || r.Src.String() != "S/x" {
		t.Fatalf("Lookup = %v %v %v", r, ok, err)
	}
	if _, ok, _ := provstore.Lookup(context.Background(), b, 9, path.MustParse("T/a")); ok {
		t.Error("phantom lookup")
	}
	anc, ok, err := provstore.NearestAncestor(context.Background(), b, 1, path.MustParse("T/a/b/c/d"))
	if err != nil || !ok || anc.Loc.String() != "T/a/b/c" {
		t.Fatalf("NearestAncestor = %v %v %v", anc, ok, err)
	}
	if _, ok, _ := provstore.NearestAncestor(context.Background(), b, 1, path.MustParse("T/a")); ok {
		t.Error("self must not be its own ancestor")
	}
	recs, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByTid(1)))
	if err != nil || len(recs) != 2 {
		t.Fatalf("ScanTid = %v %v", recs, err)
	}
	byLoc, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByLoc(path.MustParse("T/a"))))
	if err != nil || len(byLoc) != 2 || byLoc[0].Tid != 1 || byLoc[1].Tid != 2 {
		t.Fatalf("ScanLoc = %v %v", byLoc, err)
	}
	pre, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByPrefix(path.MustParse("T/a"))))
	if err != nil || len(pre) != 3 {
		t.Fatalf("ScanLocPrefix = %v %v", pre, err)
	}
	tids, _ := provstore.Tids(context.Background(), b)
	if len(tids) != 2 || tids[0] != 1 || tids[1] != 2 {
		t.Errorf("Tids = %v", tids)
	}
	st, _ := b.Stat(context.Background())
	if st.MaxTid != 2 {
		t.Errorf("MaxTid = %d", st.MaxTid)
	}
	if st.Count != 3 {
		t.Errorf("Count = %d", st.Count)
	}
	if st.Bytes <= 0 {
		t.Error("Bytes should be positive")
	}
}

// TestRelProvAppendBatch (the name predates the single write path, when a
// group was a second method): an Append spanning transactions lands whole,
// duplicate keys anywhere across it abort it before insertion, and in a
// durable store the rows survive reopening after an unclean stop (durability
// came from the WAL, not Close).
func TestRelProvAppendBatch(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prov.rel")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Append(context.Background(), nil); err != nil {
		t.Fatalf("empty group: %v", err)
	}
	group := []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""), rec(1, provstore.OpCopy, "T/b", "S/x"),
		rec(2, provstore.OpDelete, "T/a", ""),
		rec(3, provstore.OpInsert, "T/c", ""),
	}
	if err := b.Append(context.Background(), group); err != nil {
		t.Fatal(err)
	}
	if st, err := b.Stat(context.Background()); err != nil || st.Count != 4 {
		t.Fatalf("Count = %d, %v", st.Count, err)
	}
	// A duplicate across transactions of one group.
	var dup *provstore.DupKeyError
	err = b.Append(context.Background(), []provstore.Record{
		rec(9, provstore.OpInsert, "T/x", ""),
		rec(10, provstore.OpInsert, "T/y", ""),
		rec(9, provstore.OpInsert, "T/x", ""),
	})
	if !errors.As(err, &dup) {
		t.Fatalf("cross-transaction dup: %v", err)
	}
	// The failed group inserted nothing: no partial batches.
	if st, err := b.Stat(context.Background()); err != nil || st.Count != 4 {
		t.Fatalf("failed group left partial rows: Count = %d, %v", st.Count, err)
	}
	if _, ok, _ := provstore.Lookup(context.Background(), b, 9, path.MustParse("T/x")); ok {
		t.Fatal("failed group's first transaction was stored")
	}
	// Duplicate against stored rows.
	if err := b.Append(context.Background(), []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); !errors.As(err, &dup) {
		t.Fatalf("stored dup: %v", err)
	}

	// The group commit made rows durable without a Close: copy both files
	// as they stand, a crash, and reopen the copy, which recovers it.
	crashed := crashedDir(t, readFile(t, file), readFile(t, file+".wal"))
	b2, err := relprov.OpenFile(filepath.Join(crashed, "prov.db"), relprov.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st, err := b2.Stat(context.Background()); err != nil || st.Count != 4 {
		t.Fatalf("reopened Count = %d, %v", st.Count, err)
	}
	if r, ok, err := provstore.Lookup(context.Background(), b2, 3, path.MustParse("T/c")); err != nil || !ok || r.Op != provstore.OpInsert {
		t.Fatalf("reopened Lookup = %v/%v/%v", r, ok, err)
	}
}

func TestRelProvDupKey(t *testing.T) {
	b := newBackend(t)
	if err := b.Append(context.Background(), []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	var dke *provstore.DupKeyError
	if err := b.Append(context.Background(), []provstore.Record{rec(1, provstore.OpDelete, "T/a", "")}); !errors.As(err, &dke) {
		t.Errorf("stored dup: %v", err)
	}
	// In-batch duplicate aborts the whole batch.
	err := b.Append(context.Background(), []provstore.Record{
		rec(3, provstore.OpInsert, "T/x", ""),
		rec(3, provstore.OpDelete, "T/x", ""),
	})
	if !errors.As(err, &dke) {
		t.Errorf("in-batch dup: %v", err)
	}
	if _, ok, _ := provstore.Lookup(context.Background(), b, 3, path.MustParse("T/x")); ok {
		t.Error("aborted batch leaked")
	}
	// Invalid record rejected.
	if err := b.Append(context.Background(), []provstore.Record{{Tid: 1, Op: provstore.OpKind('?'), Loc: path.MustParse("T/q")}}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestRelProvLabelwisePrefix(t *testing.T) {
	b := newBackend(t)
	b.Append(context.Background(), []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""),
		rec(1, provstore.OpInsert, "T/a/x", ""),
		rec(1, provstore.OpInsert, "T/ab", ""),
	})
	got, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByPrefix(path.MustParse("T/a"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ScanLocPrefix = %v", got)
	}
	for _, r := range got {
		if r.Loc.String() == "T/ab" {
			t.Error("string-wise prefix leak: T/ab under T/a")
		}
	}
}

func TestRelProvPersistence(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prov.rel")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := b.Append(context.Background(), []provstore.Record{
			rec(int64(i), provstore.OpCopy, fmt.Sprintf("T/c%d", i), "S/a"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := relprov.OpenFile(file, relprov.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	st, _ := b2.Stat(context.Background())
	n := st.Count
	if n != 500 {
		t.Errorf("Count after reopen = %d", n)
	}
	r, ok, err := provstore.Lookup(context.Background(), b2, 250, path.MustParse("T/c250"))
	if err != nil || !ok || r.Op != provstore.OpCopy {
		t.Errorf("Lookup after reopen = %v %v %v", r, ok, err)
	}
	if tbl, err := b2.DB().Table(relprov.TableName); err != nil || tbl.RowCount() != 500 {
		t.Errorf("DB accessor wrong: the table it holds %v, %v", tbl, err)
	}
	// Opening a database without the table errors.
	empty := filepath.Join(dir, "empty.rel")
	db3, err := relstore.Open(empty, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
	if b3, err := relprov.OpenFile(empty, relprov.Options{}); err == nil {
		b3.Close()
		t.Error("Open without table should error")
	}
}

// TestRelProvMatchesMemBackend runs identical random record streams into the
// relational and in-memory backends and compares every read API.
func TestRelProvMatchesMemBackend(t *testing.T) {
	rb := newBackend(t)
	mb := provstore.NewMemBackend()
	r := rand.New(rand.NewSource(2006))
	locs := []string{"T/a", "T/a/b", "T/a/b/c", "T/ab", "T/c1", "T/c1/x", "T/c2/y/z"}
	for tid := int64(1); tid <= 40; tid++ {
		perm := r.Perm(len(locs))
		n := 1 + r.Intn(4)
		var batch []provstore.Record
		for i := 0; i < n; i++ {
			loc := locs[perm[i]]
			var rc provstore.Record
			switch r.Intn(3) {
			case 0:
				rc = rec(tid, provstore.OpInsert, loc, "")
			case 1:
				rc = rec(tid, provstore.OpDelete, loc, "")
			default:
				rc = rec(tid, provstore.OpCopy, loc, "S/src")
			}
			batch = append(batch, rc)
		}
		if err := rb.Append(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := mb.Append(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	// Compare every read surface.
	for tid := int64(0); tid <= 41; tid++ {
		rr, _ := provstore.CollectScan(rb.Scan(context.Background(), provstore.ByTid(tid)))
		mr, _ := provstore.CollectScan(mb.Scan(context.Background(), provstore.ByTid(tid)))
		if fmt.Sprint(rr) != fmt.Sprint(mr) {
			t.Errorf("ScanTid(%d): rel=%v mem=%v", tid, rr, mr)
		}
		for _, loc := range locs {
			p := path.MustParse(loc)
			r1, ok1, _ := provstore.Lookup(context.Background(), rb, tid, p)
			r2, ok2, _ := provstore.Lookup(context.Background(), mb, tid, p)
			if ok1 != ok2 || (ok1 && r1.String() != r2.String()) {
				t.Errorf("Lookup(%d,%s): rel=%v/%v mem=%v/%v", tid, loc, r1, ok1, r2, ok2)
			}
			a1, k1, _ := provstore.NearestAncestor(context.Background(), rb, tid, p)
			a2, k2, _ := provstore.NearestAncestor(context.Background(), mb, tid, p)
			if k1 != k2 || (k1 && a1.String() != a2.String()) {
				t.Errorf("NearestAncestor(%d,%s): rel=%v/%v mem=%v/%v", tid, loc, a1, k1, a2, k2)
			}
		}
	}
	for _, loc := range append(locs, "T", "T/zz") {
		p := path.MustParse(loc)
		r1, _ := provstore.CollectScan(rb.Scan(context.Background(), provstore.ByLoc(p)))
		r2, _ := provstore.CollectScan(mb.Scan(context.Background(), provstore.ByLoc(p)))
		if fmt.Sprint(r1) != fmt.Sprint(r2) {
			t.Errorf("ScanLoc(%s): rel=%v mem=%v", loc, r1, r2)
		}
		p1, _ := provstore.CollectScan(rb.Scan(context.Background(), provstore.ByPrefix(p)))
		p2, _ := provstore.CollectScan(mb.Scan(context.Background(), provstore.ByPrefix(p)))
		if fmt.Sprint(p1) != fmt.Sprint(p2) {
			t.Errorf("ScanLocPrefix(%s):\nrel=%v\nmem=%v", loc, p1, p2)
		}
	}
	t1, _ := provstore.Tids(context.Background(), rb)
	t2, _ := provstore.Tids(context.Background(), mb)
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Errorf("Tids: rel=%v mem=%v", t1, t2)
	}
	s1, _ := rb.Stat(context.Background())
	s2, _ := mb.Stat(context.Background())
	if s1.Count != s2.Count {
		t.Errorf("Count: rel=%d mem=%d", s1.Count, s2.Count)
	}
}

// TestRelProvFigure5 re-runs the Figure 5(d) golden fixture against the
// relational backend end to end.
func TestRelProvFigure5(t *testing.T) {
	b := newBackend(t)
	tr := provstore.MustNew(provstore.HierTrans, provstore.Config{
		Backend:  b,
		StartTid: figures.FirstTid,
	})
	f := figures.Forest()
	if _, err := provtest.Run(tr, f, figures.Sequence(), 0); err != nil {
		t.Fatal(err)
	}
	got, err := provtest.AllSorted(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(figures.Fig5d) {
		t.Fatalf("got %d rows, want %d: %v", len(got), len(figures.Fig5d), got)
	}
	want := map[string]bool{}
	for _, w := range figures.Fig5d {
		src := w.Src
		if src == "" {
			src = "⊥"
		}
		want[fmt.Sprintf("%d %s %s %s", w.Tid, w.Op, w.Loc, src)] = true
	}
	for _, g := range got {
		if !want[g.String()] {
			t.Errorf("unexpected row %v", g)
		}
	}
}

// TestRelScanAllStreamsInKeyOrder: ScanAll must stream the table in
// (Tid, Loc) order — the primary key's own order, page at a time.
// Scan ordering, cancellation between records and ScanAllAfter seek
// equivalence are pinned by the shared conformance suite (TestConformance
// in conformance_test.go); only the rel-specific lock-release and
// chunked-window tests remain here.

// TestRelCursorEarlyBreakReleasesLock: a consumer breaking out of a scan
// must release the backend's read lock promptly — a write issued right
// after the break succeeds instead of deadlocking on a leaked RLock.
func TestRelCursorEarlyBreakReleasesLock(t *testing.T) {
	b := newBackend(t)
	if err := b.Append(context.Background(), []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""),
		rec(1, provstore.OpInsert, "T/b", ""),
		rec(2, provstore.OpInsert, "T/a/x", ""),
	}); err != nil {
		t.Fatal(err)
	}
	for _, scan := range []iter.Seq2[provstore.Record, error]{
		b.Scan(context.Background(), provstore.All()),
		b.Scan(context.Background(), provstore.ByTid(1)),
		b.Scan(context.Background(), provstore.ByPrefix(path.MustParse("T/a"))),
		b.Scan(context.Background(), provstore.WithAncestors(path.MustParse("T/a/x"))),
	} {
		for _, err := range scan {
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- b.Append(context.Background(), []provstore.Record{rec(9, provstore.OpInsert, "T/late", "")})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after broken cursors: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("append blocked: a broken cursor leaked the read lock")
	}
}

// TestRelCursorReadInLoopWithConcurrentWriter locks in the chunked-window
// locking fix: a consumer issuing point reads from inside its own scan
// loop while another goroutine appends must make progress. (Holding the
// read lock across yields would deadlock here: the writer's pending Lock
// makes Go's RWMutex block the consumer's in-loop RLock.)
func TestRelCursorReadInLoopWithConcurrentWriter(t *testing.T) {
	b := newBackend(t)
	for i := 0; i < 600; i++ { // several chunks' worth
		if err := b.Append(context.Background(), []provstore.Record{
			rec(1, provstore.OpInsert, fmt.Sprintf("T/n%04d", i), ""),
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.Append(context.Background(), []provstore.Record{
				rec(2, provstore.OpInsert, fmt.Sprintf("T/w%04d", i), ""),
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan int, 1)
	go func() {
		n := 0
		for r, err := range b.Scan(context.Background(), provstore.All()) {
			if err != nil {
				t.Error(err)
				break
			}
			if r.Tid == 1 {
				if _, ok, err := provstore.Lookup(context.Background(), b, r.Tid, r.Loc); err != nil || !ok {
					t.Errorf("in-loop Lookup(%v) = %v %v", r.Loc, ok, err)
					break
				}
				n++
			}
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n != 600 {
			t.Fatalf("scan with in-loop reads saw %d of 600 preloaded records", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scan with in-loop point reads deadlocked against a concurrent writer")
	}
	close(stop)
	<-writerDone
}

// pagesAndRows reports what f cost the engine below b: buffer-pool fetches
// (hits + misses) and rows decoded, as deltas of the backend's gauges.
func pagesAndRows(b *relprov.Backend, f func()) (pages, rows int64) {
	g0 := provobs.Stats(provstore.Registries(b)...)
	f()
	g1 := provobs.Stats(provstore.Registries(b)...)
	pages = g1["rel.bufpool.hits"] + g1["rel.bufpool.misses"] - g0["rel.bufpool.hits"] - g0["rel.bufpool.misses"]
	return pages, g1["rel.rows_decoded"] - g0["rel.rows_decoded"]
}

// TestMaxTidPagesIndependentOfStoreSize pins the shape of the horizon probe,
// not its speed: MaxTid is one rightmost descent of the primary tree, so it
// fetches exactly one page fewer than a point probe of that tree (a descent
// that fetches its leaf twice) at 1k records and at 20k — its cost grows
// with the tree's height, never with the relation — and decodes no row.
// Tids, the skip-scan over Scan, costs a seek and one cursor window per
// transaction.
func TestMaxTidPagesIndependentOfStoreSize(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t)
	n := 0
	grow := func(to int) {
		for n < to {
			batch := make([]provstore.Record, 0, 50)
			for i := 0; i < 50; i++ {
				batch = append(batch, rec(int64(n/10+1), provstore.OpInsert, fmt.Sprintf("T/e%d/f%d", n/10, n%10), ""))
				n++
			}
			if err := b.Append(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	var maxTidPages [2]int64
	for i, size := range []int{1000, 20000} {
		grow(size)
		wantTid := int64(size / 10)
		probePages, _ := pagesAndRows(b, func() {
			if ok, err := relprov.HasPrimary(b, wantTid, path.MustParse("T/nope")); ok || err != nil {
				t.Fatalf("primary probe of an absent key = %v, %v", ok, err)
			}
		})
		var rows int64
		maxTidPages[i], rows = pagesAndRows(b, func() {
			if st, err := b.Stat(ctx); err != nil || st.MaxTid != wantTid {
				t.Fatalf("MaxTid at %d records = %d, %v; want %d", size, st.MaxTid, err, wantTid)
			}
		})
		if maxTidPages[i] != probePages-1 || rows != 0 {
			t.Errorf("%d records: MaxTid fetched %d pages and decoded %d rows; a primary-tree point probe fetches %d pages",
				size, maxTidPages[i], rows, probePages)
		}
		_, rows = pagesAndRows(b, func() {
			if tids, err := provstore.Tids(ctx, b); err != nil || len(tids) != size/10 || tids[len(tids)-1] != wantTid {
				t.Fatalf("Tids at %d records: %d tids, %v", size, len(tids), err)
			}
		})
		if rows > int64(16*size/10) {
			t.Errorf("%d records: Tids decoded %d rows, want a skip-scan: one seek and at most one first window (16 rows) per transaction", size, rows)
		}
	}
	if grew := maxTidPages[1] - maxTidPages[0]; grew < 0 || grew > 2 {
		t.Errorf("MaxTid pages went %d → %d over a 20× larger store", maxTidPages[0], maxTidPages[1])
	}
}

// TestRelProvTidsMatchMem holds MaxTid and Tids to the in-memory store's
// answers on an empty store, with gaps between tids, with an older
// transaction appended after a newer one, and after a durable store is
// closed and reopened.
func TestRelProvTidsMatchMem(t *testing.T) {
	ctx := context.Background()
	file := filepath.Join(t.TempDir(), "prov.db")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { b.Close() }()
	mem := provstore.NewMemBackend()
	check := func(when string) {
		t.Helper()
		st, _ := mem.Stat(ctx)
		wantMax := st.MaxTid
		wantTids, _ := provstore.Tids(ctx, mem)
		st, err := b.Stat(ctx)
		gotMax := st.MaxTid
		if err != nil || gotMax != wantMax {
			t.Errorf("%s: MaxTid = %d, %v; mem:// says %d", when, gotMax, err, wantMax)
		}
		gotTids, err := provstore.Tids(ctx, b)
		if err != nil || fmt.Sprint(gotTids) != fmt.Sprint(wantTids) {
			t.Errorf("%s: Tids = %v, %v; mem:// says %v", when, gotTids, err, wantTids)
		}
	}
	check("empty")
	for _, tid := range []int64{1, 5, 6, 100, 1 << 40, 3, 99, 7, 1<<40 + 2, 101} {
		batch := []provstore.Record{
			rec(tid, provstore.OpInsert, "T/a", ""),
			rec(tid, provstore.OpCopy, fmt.Sprintf("T/b/n%d", tid), "S/x"),
		}
		for _, s := range []provstore.Backend{mem, b} {
			if err := s.Append(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("after tid %d", tid))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = relprov.OpenFile(file, relprov.Options{Durable: true}); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

// TestRelCursorEmptyRangeFetchesNoRows checks the bound pushdown from the
// cursor's side: a location cursor whose index range is empty decodes no
// row, and an ancestor-merged scan decodes exactly the rows it yields — the
// probes for ancestors that were never written cost index pages only.
func TestRelCursorEmptyRangeFetchesNoRows(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t)
	var batch []provstore.Record
	for i := 0; i < 400; i++ {
		batch = append(batch, rec(int64(i/4+1), provstore.OpInsert, fmt.Sprintf("T/e%d/f/g/h%d", i/4, i%4), ""))
	}
	if err := b.Append(ctx, batch); err != nil {
		t.Fatal(err)
	}
	drain := func(scan iter.Seq2[provstore.Record, error]) (n int64) {
		for _, err := range scan {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	for name, c := range map[string]struct {
		scan iter.Seq2[provstore.Record, error]
		want int64
	}{
		"absent loc between stored ones": {b.Scan(ctx, provstore.ByLoc(path.MustParse("T/e50/f"))), 0},
		"absent loc past the last one":   {b.Scan(ctx, provstore.ByLoc(path.MustParse("U"))), 0},
		"loc with absent ancestors":      {b.Scan(ctx, provstore.WithAncestors(path.MustParse("T/e50/f/g/h2"))), 1},
		"absent loc, absent ancestors":   {b.Scan(ctx, provstore.WithAncestors(path.MustParse("T/e50/f/g/h9/i"))), 0},
		"absent tid":                     {b.Scan(ctx, provstore.ByTid(1000)), 0},
	} {
		var yielded int64
		_, rows := pagesAndRows(b, func() { yielded = drain(c.scan) })
		if yielded != c.want || rows != c.want {
			t.Errorf("%s: yielded %d records and decoded %d rows, want %d of each", name, yielded, rows, c.want)
		}
	}
}

// TestRelWindowAliasing: the records of a window share strings, one per
// eight rows, each path a substring of one. Deriving paths from them —
// Child, Join and Rebase of a record's Loc, of its parent, and of what those
// return — changes no record of the window. Four goroutines at once scan, look up and
// derive over a 2 000-record store, sharing the store's idle window
// buffers, decoders, iterators and key buffers (run it under -race).
func TestRelWindowAliasing(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t)
	for tid := int64(1); tid <= 100; tid++ {
		recs := make([]provstore.Record, 0, 20)
		for i := 0; i < 20; i++ {
			loc := fmt.Sprintf("T/e%03d/n%02d", tid, i)
			if i%2 == 1 {
				recs = append(recs, rec(tid, provstore.OpCopy, loc, fmt.Sprintf("S/x/n%02d", i)))
			} else {
				recs = append(recs, rec(tid, provstore.OpInsert, loc, ""))
			}
		}
		if err := b.Append(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	key := func(r provstore.Record) string { return fmt.Sprint(r.Tid, r.Op, r.Loc, r.Src) }
	var want []string
	for r, err := range b.Scan(ctx, provstore.All()) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, key(r))
	}
	if len(want) != 2000 {
		t.Fatalf("scan: %d records", len(want))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range []provstore.ScanSpec{provstore.All(), provstore.ByPrefix(path.MustParse("T"))} {
				recs, err := provstore.CollectScan(b.Scan(ctx, spec))
				if err != nil || len(recs) != len(want) {
					t.Errorf("%v: %d records, %v", spec, len(recs), err)
					return
				}
				for _, r := range recs {
					parent := r.Loc.MustParent()
					derived := []path.Path{
						r.Loc.Child("x"), parent.Child("y").Child("z"),
						r.Loc.Join(r.Src), parent.Join(path.MustParse("j/k")),
					}
					if rb, err := r.Loc.Rebase(parent, path.MustParse("R")); err != nil || rb.String() != "R/"+r.Loc.Base() {
						t.Errorf("Rebase of %q = %q, %v", r.Loc, rb, err)
						return
					}
					for _, d := range derived {
						_ = d.Child("w").Join(d)
					}
					if got, ok, err := provstore.Lookup(ctx, b, r.Tid, r.Loc); err != nil || !ok || key(got) != key(r) {
						t.Errorf("Lookup(%d, %q) = %v, %v, %v", r.Tid, r.Loc, got, ok, err)
						return
					}
				}
				if spec.Kind != provstore.KindAll {
					continue
				}
				for i, r := range recs {
					if key(r) != want[i] {
						t.Errorf("record %d is %q after the derivations, want %q", i, key(r), want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRelProvDupProbe: Append probes for stored duplicates with one look at
// the table's last key when every key of the batch sorts after it, and key by
// key otherwise. Either way a duplicate refuses the whole batch, and the
// record named is the first the batch is refused for.
func TestRelProvDupProbe(t *testing.T) {
	ctx := context.Background()
	b := newBackend(t)
	count := func() int {
		t.Helper()
		st, err := b.Stat(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.Count
	}
	// Lane A writes above, lane B below the stored maximum.
	for tid := int64(100); tid < 110; tid++ {
		if err := b.Append(ctx, []provstore.Record{rec(tid, provstore.OpInsert, fmt.Sprintf("T/a%d", tid), "")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append(ctx, []provstore.Record{rec(5, provstore.OpInsert, "T/x", ""), rec(5, provstore.OpInsert, "T/y", "")}); err != nil {
		t.Fatalf("lane B below the maximum: %v", err)
	}
	before := count()

	var dke *provstore.DupKeyError
	err := b.Append(ctx, []provstore.Record{
		rec(6, provstore.OpInsert, "T/x", ""),
		rec(5, provstore.OpCopy, "T/y", "S/z"), // stored by lane B
		rec(6, provstore.OpInsert, "T/y", ""),
	})
	if !errors.As(err, &dke) || dke.Tid != 5 || dke.Loc.String() != "T/y" {
		t.Fatalf("a stored duplicate below the maximum: %v, want a DupKeyError for (5, T/y)", err)
	}
	// A batch above the last key with a duplicate inside it.
	err = b.Append(ctx, []provstore.Record{
		rec(200, provstore.OpInsert, "T/p", ""),
		rec(201, provstore.OpInsert, "T/q", ""),
		rec(200, provstore.OpDelete, "T/p", ""),
	})
	if !errors.As(err, &dke) || dke.Tid != 200 {
		t.Fatalf("a duplicate within a batch above the last key: %v, want a DupKeyError for tid 200", err)
	}
	if n := count(); n != before {
		t.Fatalf("refused batches stored %d records", n-before)
	}
	for _, k := range []struct {
		tid int64
		loc string
	}{{6, "T/x"}, {6, "T/y"}, {200, "T/p"}, {201, "T/q"}} {
		if _, ok, _ := provstore.Lookup(ctx, b, k.tid, path.MustParse(k.loc)); ok {
			t.Errorf("(%d, %s) of a refused batch was stored", k.tid, k.loc)
		}
	}

	// A batch names the first record it is refused for: a stored duplicate
	// before a record too large to store, or that record before one.
	huge := rec(7, provstore.OpInsert, "T/"+strings.Repeat("h", 1200), "")
	if err := b.Append(ctx, []provstore.Record{rec(5, provstore.OpInsert, "T/x", ""), huge}); !errors.As(err, &dke) {
		t.Errorf("a stored duplicate before a record too large: %v, want a DupKeyError", err)
	}
	var tooLarge *provstore.RecordTooLargeError
	if err := b.Append(ctx, []provstore.Record{huge, rec(5, provstore.OpInsert, "T/x", "")}); !errors.As(err, &tooLarge) {
		t.Errorf("a record too large before a stored duplicate: %v, want a RecordTooLargeError", err)
	}
	if n := count(); n != before {
		t.Fatalf("refused batches stored %d records", n-before)
	}
}
