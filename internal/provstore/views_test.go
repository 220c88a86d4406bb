package provstore_test

import (
	"context"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
)

func viewStore(t *testing.T) provstore.Backend {
	t.Helper()
	b := provstore.NewMemBackend()
	err := b.Append(context.Background(), []provstore.Record{
		{Tid: 1, Op: provstore.OpInsert, Loc: path.MustParse("T/a")},
		{Tid: 2, Op: provstore.OpCopy, Loc: path.MustParse("T/b"), Src: path.MustParse("S/x")},
		{Tid: 3, Op: provstore.OpDelete, Loc: path.MustParse("T/a")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestViewPredicates(t *testing.T) {
	b := viewStore(t)
	p := path.MustParse

	if ok, _ := provstore.Ins(context.Background(), b, 1, p("T/a")); !ok {
		t.Error("Ins(1, T/a)")
	}
	if ok, _ := provstore.Ins(context.Background(), b, 2, p("T/a")); ok {
		t.Error("¬Ins(2, T/a)")
	}
	if ok, _ := provstore.Del(context.Background(), b, 3, p("T/a")); !ok {
		t.Error("Del(3, T/a)")
	}
	if ok, _ := provstore.Unch(context.Background(), b, 2, p("T/a")); !ok {
		t.Error("Unch(2, T/a)")
	}
	if ok, _ := provstore.Unch(context.Background(), b, 2, p("T/b")); ok {
		t.Error("¬Unch(2, T/b)")
	}
	src, ok, _ := provstore.Copy(context.Background(), b, 2, p("T/b"))
	if !ok || src.String() != "S/x" {
		t.Errorf("Copy(2, T/b) = %v, %v", src, ok)
	}
	if _, ok, _ := provstore.Copy(context.Background(), b, 1, p("T/a")); ok {
		t.Error("¬Copy(1, T/a)")
	}
	// Hierarchical inference flows through the views: children of the
	// copied node are copied from rebased sources.
	src, ok, _ = provstore.Copy(context.Background(), b, 2, p("T/b/k"))
	if !ok || src.String() != "S/x/k" {
		t.Errorf("inferred Copy(2, T/b/k) = %v, %v", src, ok)
	}
	if ok, _ := provstore.Ins(context.Background(), b, 1, p("T/a/child")); !ok {
		t.Error("children of inserted nodes are inserted")
	}
}

func TestFromPredicate(t *testing.T) {
	b := viewStore(t)
	p := path.MustParse

	// Unchanged: comes from itself.
	q, ok, err := provstore.From(context.Background(), b, 2, p("T/other"))
	if err != nil || !ok || !q.Equal(p("T/other")) {
		t.Errorf("From(unch) = %v, %v, %v", q, ok, err)
	}
	// Copied: comes from the source.
	q, ok, _ = provstore.From(context.Background(), b, 2, p("T/b"))
	if !ok || q.String() != "S/x" {
		t.Errorf("From(copy) = %v, %v", q, ok)
	}
	// Inserted: no predecessor.
	if _, ok, _ := provstore.From(context.Background(), b, 1, p("T/a")); ok {
		t.Error("From(inserted) should have no predecessor")
	}
	// Deleted: no predecessor either.
	if _, ok, _ := provstore.From(context.Background(), b, 3, p("T/a")); ok {
		t.Error("From(deleted) should have no predecessor")
	}
}
