package provstore_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/figures"
	"repro/internal/provstore"
	"repro/internal/provtest"
)

// The golden tests of this file reproduce the paper's Figure 5 exactly: the
// four provenance tables (a)–(d) that result from running the Figure 3
// update operation under each storage method.

// checkTable compares two provenance tables as relations (order-free): both
// sides are canonicalized to sorted row strings before comparison.
func checkTable(t *testing.T, got []provstore.Record, want []figures.Row) {
	t.Helper()
	gs := make([]string, len(got))
	for i, r := range got {
		gs[i] = r.String()
	}
	ws := make([]string, len(want))
	for i, w := range want {
		ws[i] = fmt.Sprintf("%d %s %s %s", w.Tid, w.Op, w.Loc, orBot(w.Src))
	}
	sort.Strings(gs)
	sort.Strings(ws)
	if len(gs) != len(ws) {
		t.Errorf("table has %d rows, want %d", len(gs), len(ws))
	}
	n := min(len(gs), len(ws))
	for i := 0; i < n; i++ {
		if gs[i] != ws[i] {
			t.Errorf("row %d: got (%s), want (%s)", i, gs[i], ws[i])
		}
	}
	for i := n; i < len(gs); i++ {
		t.Errorf("unexpected extra row: %s", gs[i])
	}
	for i := n; i < len(ws); i++ {
		t.Errorf("missing row: %s", ws[i])
	}
}

func orBot(s string) string {
	if s == "" {
		return "⊥"
	}
	return s
}

func runFigure3(t *testing.T, m provstore.Method, perOp bool) (provstore.Tracker, []provtest.Version) {
	t.Helper()
	tr := provstore.MustNew(m, provstore.Config{
		Backend:  provstore.NewMemBackend(),
		StartTid: figures.FirstTid,
	})
	f := figures.Forest()
	var (
		vs  []provtest.Version
		err error
	)
	if perOp {
		vs, err = provtest.RunPerOp(tr, f, figures.Sequence())
	} else {
		vs, err = provtest.Run(tr, f, figures.Sequence(), 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !f.DB("T").Equal(figures.TPrime()) {
		t.Fatalf("target after script != T': %s", f.DB("T"))
	}
	return tr, vs
}

// TestFigure5a: naïve provenance, one transaction per operation.
func TestFigure5a(t *testing.T) {
	tr, _ := runFigure3(t, provstore.Naive, true)
	got, err := provtest.AllSorted(tr.Backend())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, got, figures.Fig5a)
}

// TestFigure5b: transactional provenance, the entire update as one
// transaction.
func TestFigure5b(t *testing.T) {
	tr, _ := runFigure3(t, provstore.Transactional, false)
	got, err := provtest.AllSorted(tr.Backend())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, got, figures.Fig5b)
}

// TestFigure5c: hierarchical provenance, one transaction per operation.
func TestFigure5c(t *testing.T) {
	tr, _ := runFigure3(t, provstore.Hierarchical, true)
	got, err := provtest.AllSorted(tr.Backend())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, got, figures.Fig5c)
}

// TestFigure5d: hierarchical-transactional provenance, one transaction.
func TestFigure5d(t *testing.T) {
	tr, _ := runFigure3(t, provstore.HierTrans, false)
	got, err := provtest.AllSorted(tr.Backend())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, got, figures.Fig5d)
}

// TestFigure5dExpandsTo5b: expanding the hierarchical-transactional table
// (d) through the recursive view of §2.1.3, against the pre/post states of
// the transaction, must yield exactly the transactional table (b). This is
// the paper's claim that hierarchical provenance "does not discard any
// information" relative to its non-hierarchical counterpart.
func TestFigure5dExpandsTo5b(t *testing.T) {
	tr, vs := runFigure3(t, provstore.HierTrans, false)
	if len(vs) != 2 {
		t.Fatalf("expected 2 versions, got %d", len(vs))
	}
	recs, err := provtest.AllSorted(tr.Backend())
	if err != nil {
		t.Fatal(err)
	}
	full, err := provstore.ExpandTxn(recs, vs[0].Forest, vs[1].Forest)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, full, figures.Fig5b)
}

// TestFigure5cExpandsTo5a: the per-operation analogue — expanding each
// hierarchical transaction of table (c) against its per-op pre/post states
// yields table (a).
func TestFigure5cExpandsTo5a(t *testing.T) {
	tr, vs := runFigure3(t, provstore.Hierarchical, true)
	var full []provstore.Record
	for i := 1; i < len(vs); i++ {
		recs, err := provstore.CollectScan(tr.Backend().Scan(context.Background(), provstore.ByTid(vs[i].Tid)))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := provstore.ExpandTxn(recs, vs[i-1].Forest, vs[i].Forest)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, ex...)
	}
	checkTable(t, full, figures.Fig5a)
}

// TestFigure5RowCounts cross-checks the storage-cost claims the paper makes
// about this example: the hierarchical table is 10 rows (one per op, |U|),
// "about 25% smaller" than the naïve 16; HT is 7 = i + d + C.
func TestFigure5RowCounts(t *testing.T) {
	counts := map[provstore.Method]int{}
	for _, m := range provstore.AllMethods {
		tr, _ := runFigure3(t, m, !m.Deferred())
		st, err := tr.Backend().Stat(context.Background())
		n := st.Count
		if err != nil {
			t.Fatal(err)
		}
		counts[m] = n
	}
	want := map[provstore.Method]int{
		provstore.Naive:         16,
		provstore.Hierarchical:  10,
		provstore.Transactional: 13,
		provstore.HierTrans:     7,
	}
	for m, w := range want {
		if counts[m] != w {
			t.Errorf("%v stored %d rows, want %d", m, counts[m], w)
		}
	}
	// |HT| ≤ min(|U|, |T|) (§2.1.4).
	if counts[provstore.HierTrans] > 10 || counts[provstore.HierTrans] > counts[provstore.Transactional] {
		t.Error("HT bound violated")
	}
}
