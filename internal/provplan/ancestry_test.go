package provplan_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/tree"
	"repro/internal/update"
)

// An ancestry is the tests' shell over Collect with the horizon pinned by the
// caller: a non-positive tnow is an empty history, answered without the store.
type ancestry struct{ b provstore.Backend }

func (e ancestry) run(ctx context.Context, op string, p path.Path, tnow int64) (provplan.Result, error) {
	if tnow <= 0 {
		return provplan.Result{Trace: provplan.TraceResult{Origin: provplan.OriginPreexisting}}, nil
	}
	res, err := provplan.Collect(ctx, e.b, &provplan.Query{Op: op, Path: p.String(), AsOf: tnow})
	if err != nil {
		return provplan.Result{}, err
	}
	return *res, nil
}

func (e ancestry) maxTid(t *testing.T) int64 {
	t.Helper()
	st, err := e.b.Stat(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.MaxTid
}

// figureEngine runs the Figure 3 script under the given method (per-op
// transactions for immediate methods, single transaction otherwise) and
// returns a query engine plus the final transaction number.
func figureEngine(t *testing.T, m provstore.Method) (ancestry, int64) {
	t.Helper()
	tr := provstore.MustNew(m, provstore.Config{
		Backend:  provstore.NewMemBackend(),
		StartTid: figures.FirstTid,
	})
	f := figures.Forest()
	var err error
	if m.Deferred() {
		_, err = provtest.Run(tr, f, figures.Sequence(), 0)
	} else {
		_, err = provtest.RunPerOp(tr, f, figures.Sequence())
	}
	if err != nil {
		t.Fatal(err)
	}
	eng := ancestry{tr.Backend()}
	return eng, eng.maxTid(t)
}

// TestSrcFigure3: only T/c4/y was genuinely inserted (op 10, txn 130);
// everything else was copied from external sources or pre-existed.
func TestSrcFigure3(t *testing.T) {
	for _, m := range []provstore.Method{provstore.Naive, provstore.Hierarchical} {
		eng, tnow := figureEngine(t, m)
		src, err := eng.run(context.Background(), provplan.OpSrc, path.MustParse("T/c4/y"), tnow)
		if err != nil || !src.Found || src.Value != 130 {
			t.Errorf("%v: Src(T/c4/y) = %d, %v, %v; want 130", m, src.Value, src.Found, err)
		}
		// Copied data: origin is external, no Src answer (the paper's
		// "partial answer" case).
		if src, _ := eng.run(context.Background(), provplan.OpSrc, path.MustParse("T/c2/y"), tnow); src.Found {
			t.Errorf("%v: Src of externally copied data should be unknown", m)
		}
		// Pre-existing data: also no answer.
		if src, _ := eng.run(context.Background(), provplan.OpSrc, path.MustParse("T/c1/x"), tnow); src.Found {
			t.Errorf("%v: Src of pre-existing data should be unknown", m)
		}
	}
}

// TestHistFigure3 checks Hist against hand-computed chains.
func TestHistFigure3(t *testing.T) {
	cases := []struct {
		loc  string
		want []int64
	}{
		{"T/c1/y", []int64{122}},
		{"T/c2", []int64{124}},
		{"T/c2/x", []int64{124}},
		{"T/c2/y", []int64{126}},
		{"T/c3/x", []int64{127}},
		{"T/c4", []int64{129}},
		{"T/c4/x", []int64{129}},
		{"T/c4/y", nil}, // inserted, never copied
		{"T/c1/x", nil}, // pre-existing
	}
	for _, m := range []provstore.Method{provstore.Naive, provstore.Hierarchical} {
		eng, tnow := figureEngine(t, m)
		for _, c := range cases {
			got, err := eng.run(context.Background(), provplan.OpHist, path.MustParse(c.loc), tnow)
			if err != nil {
				t.Fatalf("%v: Hist(%s): %v", m, c.loc, err)
			}
			if fmt.Sprint(got.Tids) != fmt.Sprint(c.want) {
				t.Errorf("%v: Hist(%s) = %v, want %v", m, c.loc, got.Tids, c.want)
			}
		}
	}
}

// TestTraceOrigins distinguishes the three chain endings.
func TestTraceOrigins(t *testing.T) {
	eng, tnow := figureEngine(t, provstore.Naive)
	res, err := eng.run(context.Background(), provplan.OpTrace, path.MustParse("T/c4/y"), tnow)
	if tr := res.Trace; err != nil || tr.Origin != provplan.OriginInserted {
		t.Errorf("inserted origin: %+v, %v", tr, err)
	}
	res, err = eng.run(context.Background(), provplan.OpTrace, path.MustParse("T/c2/x"), tnow)
	if tr := res.Trace; err != nil || tr.Origin != provplan.OriginExternal || tr.External.String() != "S1/a2/x" {
		t.Errorf("external origin: %+v, %v", tr, err)
	}
	res, err = eng.run(context.Background(), provplan.OpTrace, path.MustParse("T/c1/x"), tnow)
	if tr := res.Trace; err != nil || tr.Origin != provplan.OriginPreexisting {
		t.Errorf("preexisting origin: %+v, %v", tr, err)
	}
	if tr := (provplan.Event{Tid: 5, Op: provstore.OpCopy, Loc: path.MustParse("T/a"), Src: path.MustParse("S/b")}); tr.String() == "" {
		t.Error("Event.String empty")
	}
	for _, o := range []provplan.Origin{provplan.OriginInserted, provplan.OriginExternal, provplan.OriginPreexisting, provplan.Origin(9)} {
		if o.String() == "" {
			t.Error("Origin.String empty")
		}
	}
}

// TestModFigure3 checks Mod against the hand-derived formal answer: the
// placeholder inserts (123, 125, 128) were overwritten by the copies that
// followed them, so the Unch chain is broken and they do not appear.
func TestModFigure3(t *testing.T) {
	for _, m := range []provstore.Method{provstore.Naive, provstore.Hierarchical} {
		eng, tnow := figureEngine(t, m)
		mod := func(loc string) []int64 {
			res, err := eng.run(context.Background(), provplan.OpMod, path.MustParse(loc), tnow)
			if err != nil {
				t.Fatal(err)
			}
			return res.Tids
		}
		got := mod("T")
		want := []int64{121, 122, 124, 126, 127, 129, 130}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: Mod(T) = %v, want %v", m, got, want)
		}
		got = mod("T/c2")
		if fmt.Sprint(got) != fmt.Sprint([]int64{124, 126}) {
			t.Errorf("%v: Mod(T/c2) = %v", m, got)
		}
		got = mod("T/c4/x")
		if fmt.Sprint(got) != fmt.Sprint([]int64{129}) {
			t.Errorf("%v: Mod(T/c4/x) = %v", m, got)
		}
		got = mod("T/c5")
		if fmt.Sprint(got) != fmt.Sprint([]int64{121}) {
			t.Errorf("%v: Mod(T/c5) = %v (the delete)", m, got)
		}
		got = mod("T/untouched")
		if len(got) != 0 {
			t.Errorf("%v: Mod of untouched = %v", m, got)
		}
	}
}

// TestModCountsDeletes: deletions modify the subtree even though the data
// is gone.
func TestModCountsDeletes(t *testing.T) {
	for _, m := range provstore.AllMethods {
		tr := provstore.MustNew(m, provstore.Config{Backend: provstore.NewMemBackend()})
		f := figures.Forest()
		seq := update.MustParseScript(`
			insert {k : {}} into T/c1;
			delete k from T/c1;
		`)
		if _, err := provtest.RunPerOp(tr, f, seq); err != nil {
			t.Fatal(err)
		}
		eng := ancestry{tr.Backend()}
		tnow := eng.maxTid(t)
		res, err := eng.run(context.Background(), provplan.OpMod, path.MustParse("T/c1"), tnow)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Tids
		// The delete (txn 2) modified T/c1. The insert (txn 1) does NOT
		// appear: per the formal Trace semantics, the delete record at
		// T/c1/k breaks the Unch chain through that location, so the
		// earlier insert is unreachable from any current path.
		if fmt.Sprint(got) != fmt.Sprint([]int64{2}) {
			t.Errorf("%v: Mod = %v, want [2]", m, got)
		}
	}
}

// TestChainThroughTargetCopies: data copied within the target traces
// through multiple hops back to its insertion.
func TestChainThroughTargetCopies(t *testing.T) {
	for _, m := range provstore.AllMethods {
		tr := provstore.MustNew(m, provstore.Config{Backend: provstore.NewMemBackend()})
		f := figures.Forest()
		seq := update.MustParseScript(`
			insert {orig : 7} into T/c1;
			copy T/c1/orig into T/c1/hop1;
			copy T/c1/hop1 into T/c5/hop2;
		`)
		if _, err := provtest.RunPerOp(tr, f, seq); err != nil {
			t.Fatal(err)
		}
		eng := ancestry{tr.Backend()}
		tnow := eng.maxTid(t)
		src, err := eng.run(context.Background(), provplan.OpSrc, path.MustParse("T/c5/hop2"), tnow)
		if err != nil || !src.Found || src.Value != 1 {
			t.Errorf("%v: Src through hops = %d, %v, %v", m, src.Value, src.Found, err)
		}
		hist, _ := eng.run(context.Background(), provplan.OpHist, path.MustParse("T/c5/hop2"), tnow)
		if fmt.Sprint(hist.Tids) != fmt.Sprint([]int64{3, 2}) {
			t.Errorf("%v: Hist through hops = %v, want [3 2]", m, hist.Tids)
		}
	}
}

// TestCrossMethodAgreement: with one operation per transaction, all four
// storage methods record the same information, so every query must agree.
// (Per-location shadowing corners can differ between explicit and
// hierarchical stores under overwriting copies; the random workload here
// uses the same sequences as the provstore tests, which include them, so
// agreement is asserted N==T and H==HT strictly, and N vs H on Src/Hist.)
func TestCrossMethodAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seqF := figures.Forest()
		seq := randomOps(rand.New(rand.NewSource(seed)), seqF, 30)

		engines := map[provstore.Method]ancestry{}
		var tnow int64
		var locs []path.Path
		for _, m := range provstore.AllMethods {
			tr := provstore.MustNew(m, provstore.Config{Backend: provstore.NewMemBackend()})
			f := figures.Forest()
			if _, err := provtest.RunPerOp(tr, f, seq); err != nil {
				t.Fatal(err)
			}
			engines[m] = ancestry{tr.Backend()}
			tnow = engines[m].maxTid(t)
			if locs == nil {
				f.DB("T").Walk(func(rel path.Path, _ *tree.Node) error {
					if !rel.IsRoot() {
						locs = append(locs, path.New("T").Join(rel))
					}
					return nil
				})
			}
		}
		// Mod is compared only within explicit (N vs T) and hierarchical
		// (H vs HT) families: recovering the exact Mod answer from HProv
		// alone is impossible without state (the paper's own H-Mod
		// "must process all the descendants of a node, including ones
		// not listed in the provenance store"), so the hierarchical Mod
		// is a documented approximation of the explicit one. Src and
		// Hist agree across all methods.
		pairs := []struct {
			a, b provstore.Method
			mod  bool
		}{
			{provstore.Naive, provstore.Transactional, true},
			{provstore.Hierarchical, provstore.HierTrans, true},
			{provstore.Naive, provstore.Hierarchical, false},
		}
		for _, loc := range locs {
			for _, pair := range pairs {
				a, b := engines[pair.a], engines[pair.b]
				sa, erra := a.run(context.Background(), provplan.OpSrc, loc, tnow)
				sb, errb := b.run(context.Background(), provplan.OpSrc, loc, tnow)
				if erra != nil || errb != nil || sa.Found != sb.Found || sa.Value != sb.Value {
					t.Errorf("seed %d: Src(%s) %v=%d/%v vs %v=%d/%v", seed, loc, pair.a, sa.Value, sa.Found, pair.b, sb.Value, sb.Found)
				}
				ha, _ := a.run(context.Background(), provplan.OpHist, loc, tnow)
				hb, _ := b.run(context.Background(), provplan.OpHist, loc, tnow)
				if fmt.Sprint(ha.Tids) != fmt.Sprint(hb.Tids) {
					t.Errorf("seed %d: Hist(%s) %v=%v vs %v=%v", seed, loc, pair.a, ha.Tids, pair.b, hb.Tids)
				}
				if !pair.mod {
					continue
				}
				ma, _ := a.run(context.Background(), provplan.OpMod, loc, tnow)
				mb, _ := b.run(context.Background(), provplan.OpMod, loc, tnow)
				if fmt.Sprint(ma.Tids) != fmt.Sprint(mb.Tids) {
					t.Errorf("seed %d: Mod(%s) %v=%v vs %v=%v", seed, loc, pair.a, ma.Tids, pair.b, mb.Tids)
				}
			}
		}
	}
}

// randomOps mirrors the generator used in the provstore tests: valid random
// sequences over the figures fixture.
func randomOps(r *rand.Rand, f *tree.Forest, n int) update.Sequence {
	scratch := f.Clone()
	var seq update.Sequence
	fresh := 0
	for len(seq) < n {
		var tp []path.Path
		scratch.DB("T").Walk(func(rel path.Path, _ *tree.Node) error {
			tp = append(tp, path.New("T").Join(rel))
			return nil
		})
		var op update.Op
		switch r.Intn(3) {
		case 0:
			parent := tp[r.Intn(len(tp))]
			if node, _ := scratch.Get(parent); node.IsLeaf() {
				continue
			}
			fresh++
			op = update.Insert{Into: parent, Label: fmt.Sprintf("n%d", fresh)}
		case 1:
			var cands []path.Path
			for _, p := range tp {
				if p.Len() >= 2 {
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				continue
			}
			v := cands[r.Intn(len(cands))]
			op = update.Delete{From: v.MustParent(), Label: v.Base()}
		default:
			var sp []path.Path
			scratch.DB("S1").Walk(func(rel path.Path, _ *tree.Node) error {
				if !rel.IsRoot() {
					sp = append(sp, path.New("S1").Join(rel))
				}
				return nil
			})
			src := sp[r.Intn(len(sp))]
			var parents []path.Path
			for _, p := range tp {
				if node, _ := scratch.Get(p); !node.IsLeaf() {
					parents = append(parents, p)
				}
			}
			parent := parents[r.Intn(len(parents))]
			var dst path.Path
			if r.Intn(2) == 0 && parent.Len() >= 2 {
				dst = parent
			} else {
				fresh++
				dst = parent.Child(fmt.Sprintf("c%d", fresh))
			}
			if dst.Len() < 2 {
				continue
			}
			op = update.Copy{Src: src, Dst: dst}
		}
		if err := op.Apply(scratch); err != nil {
			continue
		}
		seq = append(seq, op)
	}
	return seq
}

// TestFederationOwn builds a three-database chain S → T1 → T2, each target
// with its own provenance store, and asks for the ownership history.
func TestFederationOwn(t *testing.T) {
	// T1 copies from S (no provenance store), then T2 copies from T1.
	fed := provplan.NewFederation()

	// T1's session.
	tr1 := provstore.MustNew(provstore.Naive, provstore.Config{Backend: provstore.NewMemBackend()})
	f1 := tree.NewForest()
	f1.AddDB("S", tree.Build(tree.M{"item": tree.M{"v": 42}}))
	f1.AddDB("T1", tree.NewTree())
	if _, err := provtest.RunPerOp(tr1, f1, update.MustParseScript(`copy S/item into T1/item`)); err != nil {
		t.Fatal(err)
	}
	fed.Register("T1", tr1.Backend())

	// T2's session: T1 as a source.
	tr2 := provstore.MustNew(provstore.Naive, provstore.Config{Backend: provstore.NewMemBackend()})
	f2 := tree.NewForest()
	f2.AddDB("T1", f1.DB("T1").Clone())
	f2.AddDB("T2", tree.NewTree())
	if _, err := provtest.RunPerOp(tr2, f2, update.MustParseScript(`copy T1/item into T2/got`)); err != nil {
		t.Fatal(err)
	}
	fed.Register("T2", tr2.Backend())

	steps, err := fed.Own(context.Background(), path.MustParse("T2/got/v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("Own = %d steps: %+v", len(steps), steps)
	}
	if steps[0].DB != "T2" || steps[1].DB != "T1" || steps[2].DB != "S" {
		t.Errorf("ownership chain: %s → %s → %s", steps[0].DB, steps[1].DB, steps[2].DB)
	}
	if steps[2].Origin != provplan.OriginExternal {
		t.Errorf("chain should end partial at S (no store): %v", steps[2].Origin)
	}
	// Unknown starting database is immediately partial.
	steps, err = fed.Own(context.Background(), path.MustParse("Nowhere/x"))
	if err != nil || len(steps) != 1 || steps[0].Origin != provplan.OriginExternal {
		t.Errorf("unknown db: %+v, %v", steps, err)
	}
	if fed.Store("T1") == nil || fed.Store("zz") != nil {
		t.Error("Store accessor wrong")
	}
}

// TestBadTrace: querying a deleted location's live history is an error
// (store inconsistency), not a silent wrong answer.
func TestBadTrace(t *testing.T) {
	tr := provstore.MustNew(provstore.Naive, provstore.Config{Backend: provstore.NewMemBackend()})
	f := figures.Forest()
	if _, err := provtest.RunPerOp(tr, f, update.MustParseScript(`delete c5 from T`)); err != nil {
		t.Fatal(err)
	}
	eng := ancestry{tr.Backend()}
	_, err := eng.run(context.Background(), provplan.OpTrace, path.MustParse("T/c5"), 1)
	if !errors.Is(err, provplan.ErrBadTrace) {
		t.Errorf("trace through deletion: %v", err)
	}
}
