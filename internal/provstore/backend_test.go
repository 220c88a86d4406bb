package provstore

import (
	"context"
	"errors"
	"testing"

	"repro/internal/path"
)

func rec(tid int64, op OpKind, loc, src string) Record {
	r := Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

func TestMemBackendAppendAndLookup(t *testing.T) {
	b := NewMemBackend()
	if err := b.Append(context.Background(), []Record{
		rec(1, OpInsert, "T/a", ""),
		rec(1, OpCopy, "T/b", "S/x"),
		rec(2, OpDelete, "T/a", ""),
	}); err != nil {
		t.Fatal(err)
	}
	r, ok, err := Lookup(context.Background(), b, 1, path.MustParse("T/b"))
	if err != nil || !ok || r.Src.String() != "S/x" {
		t.Fatalf("Lookup = %v, %v, %v", r, ok, err)
	}
	if _, ok, _ := Lookup(context.Background(), b, 3, path.MustParse("T/a")); ok {
		t.Error("lookup of absent key should miss")
	}
	if st, _ := b.Stat(context.Background()); st.Count != 3 {
		t.Errorf("Count = %d", st.Count)
	}
	if st, _ := b.Stat(context.Background()); st.Bytes <= 0 {
		t.Error("Bytes should be positive")
	}
	if st, _ := b.Stat(context.Background()); st.MaxTid != 2 {
		t.Errorf("MaxTid = %d", st.MaxTid)
	}
}

func TestMemBackendDupKey(t *testing.T) {
	b := NewMemBackend()
	if err := b.Append(context.Background(), []Record{rec(1, OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	err := b.Append(context.Background(), []Record{rec(1, OpDelete, "T/a", "")})
	var dke *DupKeyError
	if !errors.As(err, &dke) {
		t.Fatalf("want DupKeyError, got %v", err)
	}
	// Duplicate within one batch.
	err = b.Append(context.Background(), []Record{rec(5, OpInsert, "T/z", ""), rec(5, OpDelete, "T/z", "")})
	if !errors.As(err, &dke) {
		t.Fatalf("want DupKeyError for in-batch dup, got %v", err)
	}
	// A failed batch must store nothing.
	if _, ok, _ := Lookup(context.Background(), b, 5, path.MustParse("T/z")); ok {
		t.Error("failed batch leaked records")
	}
	// Invalid record rejected.
	if err := b.Append(context.Background(), []Record{{Tid: 1, Op: OpKind('?'), Loc: path.MustParse("T/q")}}); err == nil {
		t.Error("invalid record should be rejected")
	}
}

func TestMemBackendNearestAncestor(t *testing.T) {
	b := NewMemBackend()
	b.Append(context.Background(), []Record{
		rec(7, OpCopy, "T/a", "S/p"),
		rec(7, OpInsert, "T/a/b/c", ""),
	})
	// Nearest ancestor of T/a/b/c/d/e within tid 7 is the insert at T/a/b/c.
	r, ok, err := NearestAncestor(context.Background(), b, 7, path.MustParse("T/a/b/c/d/e"))
	if err != nil || !ok || r.Loc.String() != "T/a/b/c" {
		t.Fatalf("NearestAncestor = %v, %v, %v", r, ok, err)
	}
	// Nearest ancestor of T/a/b is the copy at T/a.
	r, ok, _ = NearestAncestor(context.Background(), b, 7, path.MustParse("T/a/b"))
	if !ok || r.Loc.String() != "T/a" {
		t.Fatalf("NearestAncestor = %v, %v", r, ok)
	}
	// Self never matches (strict ancestors only).
	if _, ok, _ := NearestAncestor(context.Background(), b, 7, path.MustParse("T/a")); ok {
		t.Error("NearestAncestor must exclude self")
	}
	// Different transaction sees nothing.
	if _, ok, _ := NearestAncestor(context.Background(), b, 8, path.MustParse("T/a/b")); ok {
		t.Error("other tid should miss")
	}
}

func TestMemBackendScans(t *testing.T) {
	b := NewMemBackend()
	b.Append(context.Background(), []Record{
		rec(2, OpInsert, "T/b", ""),
		rec(1, OpInsert, "T/b", ""),
		rec(1, OpCopy, "T/a/x", "S/p"),
		rec(3, OpDelete, "T/a/x/y", ""),
		rec(1, OpInsert, "T/ab", ""),
	})
	recs, err := CollectScan(b.Scan(context.Background(), ByTid(1)))
	if err != nil || len(recs) != 3 {
		t.Fatalf("ScanTid(1) = %v, %v", recs, err)
	}
	// Ordered by Loc: T/a/x < T/ab < T/b.
	if recs[0].Loc.String() != "T/a/x" || recs[1].Loc.String() != "T/ab" || recs[2].Loc.String() != "T/b" {
		t.Errorf("ScanTid order: %v", recs)
	}
	byLoc, err := CollectScan(b.Scan(context.Background(), ByLoc(path.MustParse("T/b"))))
	if err != nil || len(byLoc) != 2 || byLoc[0].Tid != 1 || byLoc[1].Tid != 2 {
		t.Fatalf("ScanLoc = %v, %v", byLoc, err)
	}
	pre, err := CollectScan(b.Scan(context.Background(), ByPrefix(path.MustParse("T/a"))))
	if err != nil || len(pre) != 2 {
		t.Fatalf("ScanLocPrefix = %v, %v", pre, err)
	}
	// Prefix is label-wise: T/ab is not under T/a.
	for _, r := range pre {
		if r.Loc.String() == "T/ab" {
			t.Error("T/ab wrongly included under prefix T/a")
		}
	}
	tids, _ := Tids(context.Background(), b)
	if len(tids) != 3 || tids[0] != 1 || tids[2] != 3 {
		t.Errorf("Tids = %v", tids)
	}
	all := b.All()
	if len(all) != 5 {
		t.Errorf("All = %d records", len(all))
	}
}

func TestEffectiveInference(t *testing.T) {
	b := NewMemBackend()
	b.Append(context.Background(), []Record{
		rec(5, OpCopy, "T/x", "S/a"),
		rec(5, OpInsert, "T/x/new", ""),
		rec(6, OpInsert, "T/y", ""),
		rec(7, OpDelete, "T/z", ""),
	})
	// Explicit record wins.
	r, ok, err := Effective(context.Background(), b, 5, path.MustParse("T/x/new"))
	if err != nil || !ok || r.Op != OpInsert {
		t.Fatalf("explicit: %v %v %v", r, ok, err)
	}
	// Inferred copy with rebased source.
	r, ok, _ = Effective(context.Background(), b, 5, path.MustParse("T/x/b/c"))
	if !ok || r.Op != OpCopy || r.Src.String() != "S/a/b/c" {
		t.Fatalf("inferred copy: %v %v", r, ok)
	}
	// Inferred insert under inserted ancestor.
	r, ok, _ = Effective(context.Background(), b, 6, path.MustParse("T/y/k"))
	if !ok || r.Op != OpInsert {
		t.Fatalf("inferred insert: %v %v", r, ok)
	}
	// Inferred delete under deleted ancestor.
	r, ok, _ = Effective(context.Background(), b, 7, path.MustParse("T/z/w"))
	if !ok || r.Op != OpDelete {
		t.Fatalf("inferred delete: %v %v", r, ok)
	}
	// Unchanged: no record, no ancestor.
	if _, ok, _ := Effective(context.Background(), b, 5, path.MustParse("T/other")); ok {
		t.Error("unchanged location must report Unch")
	}
	// Different transaction: unchanged.
	if _, ok, _ := Effective(context.Background(), b, 6, path.MustParse("T/x/b")); ok {
		t.Error("tid mismatch must report Unch")
	}
}
