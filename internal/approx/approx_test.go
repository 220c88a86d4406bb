package approx_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/approx"
	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/update"
)

func TestRecordValidate(t *testing.T) {
	good := approx.Record{
		Tid: 1, Op: provstore.OpCopy,
		Loc: path.MustParsePattern("T/a/*/b"),
		Src: path.MustParsePattern("S/a/*/b"),
	}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if good.String() != "1 C T/a/*/b S/a/*/b" {
		t.Errorf("String = %q", good.String())
	}
	bad := []approx.Record{
		{Tid: 1, Op: provstore.OpKind('?'), Loc: path.MustParsePattern("T/a")},
		{Tid: 1, Op: provstore.OpInsert},
		{Tid: 1, Op: provstore.OpCopy, Loc: path.MustParsePattern("T/a/b")},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d validated", i)
		}
	}
	d := approx.Record{Tid: 2, Op: provstore.OpDelete, Loc: path.MustParsePattern("T/x/*")}
	if d.String() != "2 D T/x/* ⊥" {
		t.Errorf("delete String = %q", d.String())
	}
}

func TestStoreMayComeFrom(t *testing.T) {
	s := approx.NewStore()
	err := s.Append(approx.Record{
		Tid: 5, Op: provstore.OpCopy,
		Loc: path.MustParsePattern("T/cite/*/title"),
		Src: path.MustParsePattern("PubMed/*/*/title"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 || len(s.All()) != 1 {
		t.Error("count wrong")
	}
	// A location under the destination pattern may come from the rebased
	// source pattern: the wildcard binding ref9 fills the first source
	// wildcard; the second stays wild (still an over-approximation).
	pats := s.MayComeFrom(5, path.MustParse("T/cite/ref9/title"))
	if len(pats) != 1 || pats[0].String() != "PubMed/ref9/*/title" {
		t.Errorf("MayComeFrom = %v", pats)
	}
	// Descendants of matched locations are covered too.
	pats = s.MayComeFrom(5, path.MustParse("T/cite/ref9/title/sub"))
	if len(pats) != 1 || pats[0].String() != "PubMed/ref9/*/title/sub" {
		t.Errorf("MayComeFrom descendant = %v", pats)
	}
	// Other transactions and non-matching locations: nothing.
	if len(s.MayComeFrom(6, path.MustParse("T/cite/ref9/title"))) != 0 {
		t.Error("wrong tid matched")
	}
	if len(s.MayComeFrom(5, path.MustParse("T/other/ref9/title"))) != 0 {
		t.Error("non-matching location matched")
	}
	// Certainty queries.
	if s.CannotComeFrom(5, path.MustParse("T/cite/ref9/title"), path.MustParse("PubMed/ref9/vol2/title")) {
		t.Error("possible source reported impossible")
	}
	if !s.CannotComeFrom(5, path.MustParse("T/cite/ref9/title"), path.MustParse("OMIM/x/ref9/title")) {
		t.Error("impossible source not excluded")
	}
	// Invalid appends rejected.
	if err := s.Append(approx.Record{Tid: 1, Op: provstore.OpCopy, Loc: path.MustParsePattern("T/a")}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestMayBeTouchedAndApproxMod(t *testing.T) {
	s := approx.NewStore()
	s.Append(
		approx.Record{Tid: 1, Op: provstore.OpCopy,
			Loc: path.MustParsePattern("T/a/*"), Src: path.MustParsePattern("S/p/*")},
		approx.Record{Tid: 2, Op: provstore.OpDelete, Loc: path.MustParsePattern("T/b/old")},
		approx.Record{Tid: 3, Op: provstore.OpInsert, Loc: path.MustParsePattern("T/c")},
	)
	cases := []struct {
		tid  int64
		loc  string
		want bool
	}{
		{1, "T/a", true},        // pattern lies under T/a
		{1, "T/a/x", true},      // pattern matches T/a/x
		{1, "T/a/x/deep", true}, // prefix-match covers descendants
		{1, "T/b", false},
		{2, "T/b", true},
		{2, "T/b/old/sub", true},
		{3, "T", true},
		{3, "T/c/k", true},
	}
	for _, c := range cases {
		if got := s.MayBeTouched(c.tid, path.MustParse(c.loc)); got != c.want {
			t.Errorf("MayBeTouched(%d, %s) = %v, want %v", c.tid, c.loc, got, c.want)
		}
	}
	mod := s.ApproxMod(path.MustParse("T/a"), []int64{1, 2, 3})
	if fmt.Sprint(mod) != "[1]" {
		t.Errorf("ApproxMod(T/a) = %v", mod)
	}
	mod = s.ApproxMod(path.MustParse("T"), []int64{1, 2, 3})
	if fmt.Sprint(mod) != "[1 2 3]" {
		t.Errorf("ApproxMod(T) = %v", mod)
	}
}

// TestApproxIsSound: the approximate store never rules out a source the
// exact store records (soundness of over-approximation) on a bulk update.
func TestApproxIsSound(t *testing.T) {
	f := tree.NewForest()
	f.AddDB("S", tree.Build(tree.M{
		"r1": tree.M{"title": "a", "year": 1},
		"r2": tree.M{"title": "b", "year": 2},
		"r3": tree.M{"title": "c", "year": 3},
	}))
	f.AddDB("T", tree.Build(tree.M{"cite": tree.M{}}))

	bulk := approx.BulkCopy{
		Src: path.MustParsePattern("S/*"),
		Dst: path.MustParsePattern("T/cite/*"),
	}
	ops, err := bulk.Expand(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("expanded %d ops, want 3", len(ops))
	}

	// Exact tracking of the expanded ops.
	exact := provstore.MustNew(provstore.Naive, provstore.Config{Backend: provstore.NewMemBackend()})
	exact.Begin()
	for _, op := range ops {
		eff, err := op.Effect(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Apply(f); err != nil {
			t.Fatal(err)
		}
		if err := exact.OnCopy(eff); err != nil {
			t.Fatal(err)
		}
	}
	exact.Commit()

	// Approximate record: one row total.
	as := approx.NewStore()
	tids, _ := provstore.Tids(context.Background(), exact.Backend())
	for _, tid := range tids {
		if err := as.Append(bulk.Record(tid)); err != nil {
			t.Fatal(err)
		}
	}
	if as.Count() != len(tids) {
		t.Errorf("approximate store has %d records for %d txns", as.Count(), len(tids))
	}

	// Soundness: every exact copy link is admitted by the approximation.
	for _, tid := range tids {
		recs, _ := provstore.CollectScan(exact.Backend().Scan(context.Background(), provstore.ByTid(tid)))
		for _, r := range recs {
			if r.Op != provstore.OpCopy {
				continue
			}
			if as.CannotComeFrom(tid, r.Loc, r.Src) {
				t.Errorf("approximation excludes true source %v ← %v", r.Loc, r.Src)
			}
			if !as.MayBeTouched(tid, r.Loc) {
				t.Errorf("approximation misses touched location %v", r.Loc)
			}
		}
	}
	// Storage: 1 approximate record vs 6 exact rows (3 copies × size 2).
	st, _ := exact.Backend().Stat(context.Background())
	n := st.Count
	if n <= as.Count() {
		t.Errorf("exact rows %d should exceed approximate %d", n, as.Count())
	}
}

func TestBulkCopyExpandErrors(t *testing.T) {
	f := tree.NewForest()
	f.AddDB("S", tree.Build(tree.M{"a": 1}))
	f.AddDB("T", tree.NewTree())
	bad := []approx.BulkCopy{
		{},
		{Src: path.MustParsePattern("*/a"), Dst: path.MustParsePattern("T/a")},
	}
	for i, b := range bad {
		if _, err := b.Expand(f); err == nil {
			t.Errorf("bulk %d should fail", i)
		}
	}
	// Wildcard binding flows source labels into the destination.
	ops, err := (approx.BulkCopy{
		Src: path.MustParsePattern("S/*"),
		Dst: path.MustParsePattern("T/in/*"),
	}).Expand(f)
	if err != nil || len(ops) != 1 || ops[0].Dst.String() != "T/in/a" {
		t.Errorf("wildcard-bound expand = %v, %v", ops, err)
	}
	// Unknown database.
	unknown := approx.BulkCopy{Src: path.MustParsePattern("Nope/*"), Dst: path.MustParsePattern("T/*")}
	if _, err := unknown.Expand(f); err == nil {
		t.Error("unknown db should fail")
	}
}

// TestBulkApplyMatchesManual: expanding and applying a bulk copy equals
// doing the copies by hand.
func TestBulkApplyMatchesManual(t *testing.T) {
	build := func() *tree.Forest {
		f := tree.NewForest()
		f.AddDB("S", tree.Build(tree.M{
			"p1": tree.M{"v": 1},
			"p2": tree.M{"v": 2},
		}))
		f.AddDB("T", tree.Build(tree.M{"in": tree.M{}}))
		return f
	}
	bulkF := build()
	bulk := approx.BulkCopy{
		Src: path.MustParsePattern("S/*"),
		Dst: path.MustParsePattern("T/in/*"),
	}
	ops, err := bulk.Expand(bulkF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (update.Sequence)(toSeq(ops)).Apply(bulkF); err != nil {
		t.Fatal(err)
	}
	manualF := build()
	manual := update.MustParseScript(`
		copy S/p1 into T/in/p1;
		copy S/p2 into T/in/p2;
	`)
	if _, err := manual.Apply(manualF); err != nil {
		t.Fatal(err)
	}
	if !bulkF.DB("T").Equal(manualF.DB("T")) {
		t.Errorf("bulk result %s != manual %s", bulkF.DB("T"), manualF.DB("T"))
	}
}

func toSeq(ops []update.Copy) update.Sequence {
	seq := make(update.Sequence, len(ops))
	for i, op := range ops {
		seq[i] = op
	}
	return seq
}
