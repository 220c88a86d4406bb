package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/provstore"
	"repro/internal/workload"
)

// quick returns the scaled-down config writing scratch files under t's
// temp dir.
func quick(t *testing.T) RunConfig {
	t.Helper()
	rc := Quick()
	rc.Dir = t.TempDir()
	return rc
}

func cell(t *testing.T, tb *Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tb.ID, row, col, tb)
	}
	return tb.Rows[row][col]
}

func numCell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := cell(t, tb, row, col)
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "MB")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric", tb.ID, row, col, cell(t, tb, row, col))
	}
	return v
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 12 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	if _, ok := Find("fig7"); !ok {
		t.Error("fig7 not found")
	}
	if _, ok := Find("nonsense"); ok {
		t.Error("bogus id found")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tb.addRow("1", "2")
	tb.note("n%d", 1)
	s := tb.String()
	for _, want := range []string{"demo", "bb", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

// TestFig7Shape: copy-heavy patterns stress N fourfold relative to the
// hierarchical methods; HT never stores more than any other method.
func TestFig7Shape(t *testing.T) {
	tabs, err := Fig7(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	// Columns: pattern, N, H, T, HT. Rows: add, delete, copy, ac-mix, mix.
	for r := range tb.Rows {
		n := numCell(t, tb, r, 1)
		h := numCell(t, tb, r, 2)
		tt := numCell(t, tb, r, 3)
		ht := numCell(t, tb, r, 4)
		if ht > n || ht > h || ht > tt {
			t.Errorf("row %s: HT=%v not minimal (N=%v H=%v T=%v)", cell(t, tb, r, 0), ht, n, h, tt)
		}
	}
	// The pure-copy row: N ≈ 4× H (size-4 subtrees).
	copyRow := 2
	if got := numCell(t, tb, copyRow, 1) / numCell(t, tb, copyRow, 2); got < 3.5 || got > 4.5 {
		t.Errorf("copy pattern N/H ratio = %.2f, want ≈ 4", got)
	}
	// Pure adds: N and H identical (one record per op). Pure deletes:
	// comparable — N stores one record per deleted node, H one per op,
	// and random victims are mostly leaves or small subtrees.
	if n, h := numCell(t, tb, 0, 1), numCell(t, tb, 0, 2); n != h {
		t.Errorf("add row: N=%v H=%v should be equal", n, h)
	}
	if n, h := numCell(t, tb, 1, 1), numCell(t, tb, 1, 2); n > 3*h || h > n {
		t.Errorf("delete row: N=%v vs H=%v out of shape", n, h)
	}
}

// TestFig8Shape: row counts carry over to the long runs and physical size
// tracks rows.
func TestFig8Shape(t *testing.T) {
	tabs, err := Fig8(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	// Columns: pattern, N rows, N size, H rows, H size, T rows, T size, HT rows, HT size.
	for r := range tb.Rows {
		nRows := numCell(t, tb, r, 1)
		htRows := numCell(t, tb, r, 7)
		if htRows > nRows {
			t.Errorf("row %s: HT rows %v > N rows %v", cell(t, tb, r, 0), htRows, nRows)
		}
		if numCell(t, tb, r, 2) <= 0 {
			t.Errorf("row %s: zero physical size", cell(t, tb, r, 0))
		}
	}
	// HT reduces storage substantially relative to N. On mix the savings
	// come from hierarchical copies; on real (7-op cycles vs 5-op txns)
	// the transactional netting is partially misaligned, so the ratio is
	// smaller — see EXPERIMENTS.md.
	if ratio := numCell(t, tb, 0, 1) / numCell(t, tb, 0, 7); ratio < 2 {
		t.Errorf("mix pattern N/HT row ratio = %.2f, want ≥ 2", ratio)
	}
	if ratio := numCell(t, tb, 1, 1) / numCell(t, tb, 1, 7); ratio < 1.3 {
		t.Errorf("real pattern N/HT row ratio = %.2f, want ≥ 1.3", ratio)
	}
}

// TestFig9And10Shape: the headline timing claims.
func TestFig9And10Shape(t *testing.T) {
	rc := quick(t)
	tabs9, err := Fig9(rc)
	if err != nil {
		t.Fatal(err)
	}
	t9 := tabs9[0]
	// Columns: method, dataset, add, delete, paste, commit.
	idx := map[string]int{}
	for i, m := range provstore.AllMethods {
		idx[m.String()] = i
	}
	dataset := func(m string) float64 { return numCell(t, t9, idx[m], 1) }
	addP := func(m string) float64 { return numCell(t, t9, idx[m], 2) }
	pasteP := func(m string) float64 { return numCell(t, t9, idx[m], 4) }
	commitP := func(m string) float64 { return numCell(t, t9, idx[m], 5) }

	// Dataset interaction dwarfs provenance manipulation for all methods.
	for _, m := range provstore.AllMethods {
		if addP(m.String()) > 0.35*dataset(m.String()) {
			t.Errorf("%v: add prov %v > 35%% of dataset %v", m, addP(m.String()), dataset(m.String()))
		}
	}
	// Deferred methods: ops ≈ 0, commits ≈ 25% of a dataset interaction.
	for _, m := range []string{"T", "HT"} {
		if addP(m) > 1 || pasteP(m) > 1 {
			t.Errorf("%s: deferred ops should cost ~0 (add=%v paste=%v)", m, addP(m), pasteP(m))
		}
		c := commitP(m) / dataset(m)
		if c < 0.08 || c > 0.4 {
			t.Errorf("%s: commit/dataset = %.2f, want ≈ 0.25", m, c)
		}
	}
	// H inserts pay the extra query: slower than N inserts.
	if addP("H") <= addP("N") {
		t.Errorf("H add %v should exceed N add %v", addP("H"), addP("N"))
	}
	// H copies are cheaper than N copies (one record vs four).
	if pasteP("H") >= pasteP("N") {
		t.Errorf("H paste %v should undercut N paste %v", pasteP("H"), pasteP("N"))
	}

	tabs10, err := Fig10(rc)
	if err != nil {
		t.Fatal(err)
	}
	t10 := tabs10[0]
	// Naive overhead ≤ 30% on every op type (the paper's headline).
	for c := 1; c <= 3; c++ {
		if v := numCell(t, t10, idx["N"], c); v > 32 {
			t.Errorf("naive overhead col %d = %.1f%%, paper says < 30%%", c, v)
		}
	}
	// HT overhead small on every op type.
	for c := 1; c <= 3; c++ {
		if v := numCell(t, t10, idx["HT"], c); v > 8 {
			t.Errorf("HT overhead col %d = %.1f%%, paper says ≤ 6%%", c, v)
		}
	}
}

// TestFig11Shape: deletes cannot shrink N/H stores; HT stays smallest.
func TestFig11Shape(t *testing.T) {
	tabs, err := Fig11(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	// Columns: deletion, N ac, N acd, H ac, H acd, T ac, T acd, HT ac, HT acd.
	for r := range tb.Rows {
		name := cell(t, tb, r, 0)
		for i, m := range []string{"N", "H"} {
			ac := numCell(t, tb, r, 1+2*i)
			acd := numCell(t, tb, r, 2+2*i)
			if acd < ac {
				t.Errorf("%s/%s: deletes shrank an immediate store (%v < %v)", name, m, acd, ac)
			}
		}
		htACD := numCell(t, tb, r, 8)
		for _, col := range []int{2, 4, 6} {
			if htACD > numCell(t, tb, r, col) {
				t.Errorf("%s: HT acd %v not minimal", name, htACD)
			}
		}
	}
}

// TestFig12Shape: commit cost grows with transaction length, amortized
// per-op cost stays flat.
func TestFig12Shape(t *testing.T) {
	rc := quick(t)
	rc.StepsShort = 2100 // allow txn length up to 1000 with ≥ 2 commits
	tabs, err := Fig12(rc)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("too few txn lengths:\n%s", tb)
	}
	prevCommit := -1.0
	for r := range tb.Rows {
		commit := numCell(t, tb, r, 4)
		if commit < prevCommit {
			t.Errorf("commit time should grow with txn length: row %d: %v < %v", r, commit, prevCommit)
		}
		prevCommit = commit
	}
	first, last := numCell(t, tb, 0, 5), numCell(t, tb, len(tb.Rows)-1, 5)
	if last > 4*first+1 {
		t.Errorf("amortized cost not flat: %v → %v", first, last)
	}
}

// TestFig13Shape: transactional queries beat naive; Mod is the most
// expensive query. Rows 0–3 use the paper's transaction length 5, rows 4–7
// the cycle-aligned length 7 (strongest netting).
func TestFig13Shape(t *testing.T) {
	tabs, err := Fig13(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("want 8 rows (2 txn lengths × 4 methods):\n%s", tb)
	}
	idx := func(m string, aligned bool) int {
		base := 0
		if aligned {
			base = 4
		}
		for i, mm := range provstore.AllMethods {
			if mm.String() == m {
				return base + i
			}
		}
		t.Fatalf("method %s missing", m)
		return -1
	}
	src := func(m string, al bool) float64 { return numCell(t, tb, idx(m, al), 3) }
	mod := func(m string, al bool) float64 { return numCell(t, tb, idx(m, al), 4) }
	hist := func(m string, al bool) float64 { return numCell(t, tb, idx(m, al), 5) }
	for _, al := range []bool{false, true} {
		for _, m := range provstore.AllMethods {
			s := m.String()
			if mod(s, al) < hist(s, al) {
				t.Errorf("%s aligned=%v: getMod %v should dominate getHist %v", s, al, mod(s, al), hist(s, al))
			}
			if src(s, al) < hist(s, al) {
				t.Errorf("%s aligned=%v: getSrc %v should be ≥ getHist %v", s, al, src(s, al), hist(s, al))
			}
		}
	}
	// With cycle-aligned transactions the transactional store shrinks
	// enough to show the paper's query speedup over naive.
	if ratio := hist("N", true) / hist("T", true); ratio < 1.5 {
		t.Errorf("aligned N/T getHist speedup = %.2f, want ≥ 1.5", ratio)
	}
	// Even misaligned, transactional queries are no slower than naive.
	if hist("T", false) > hist("N", false)*1.05 {
		t.Errorf("misaligned T getHist %v slower than N %v", hist("T", false), hist("N", false))
	}
}

// TestTables123 exercises the descriptive tables.
func TestTables123(t *testing.T) {
	rc := quick(t)
	for _, f := range []func(RunConfig) ([]*Table, error){Table1, Table2, Table3} {
		tabs, err := f(rc)
		if err != nil {
			t.Fatal(err)
		}
		if len(tabs) != 1 || len(tabs[0].Rows) == 0 {
			t.Errorf("table empty: %v", tabs)
		}
	}
	// Table 2 mix row: roughly equal thirds.
	tabs, _ := Table2(rc)
	tb := tabs[0]
	mixRow := 4
	total := numCell(t, tb, mixRow, 4)
	for c := 1; c <= 3; c++ {
		frac := numCell(t, tb, mixRow, c) / total
		if frac < 0.2 || frac > 0.47 {
			t.Errorf("mix fraction col %d = %.2f, want ≈ 1/3", c, frac)
		}
	}
	// Table 2 real row: 1:3:3 copy:add:delete per 7-op cycle.
	realRow := 5
	copies := numCell(t, tb, realRow, 3)
	adds := numCell(t, tb, realRow, 1)
	if adds < 2.5*copies || adds > 3.5*copies {
		t.Errorf("real pattern adds/copies = %v/%v, want ≈ 3", adds, copies)
	}
}

// TestFig5Experiment renders the golden tables.
func TestFig5Experiment(t *testing.T) {
	tabs, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("want 4 tables, got %d", len(tabs))
	}
	wantRows := []int{16, 13, 10, 7}
	order := []string{"fig5a", "fig5b", "fig5c", "fig5d"}
	for i, tb := range tabs {
		if tb.ID != order[i] || len(tb.Rows) != wantRows[i] {
			t.Errorf("table %s has %d rows, want %d", tb.ID, len(tb.Rows), wantRows[i])
		}
	}
}

// TestAblations runs the ablation suite.
func TestAblations(t *testing.T) {
	rc := quick(t)
	rc.StepsShort = 120
	tabs, err := ablations(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) < 3 {
		t.Fatalf("ablations missing: %d tables", len(tabs))
	}
	// A4: elimination strictly reduces rows on the nested-copy workload.
	a4 := tabs[0]
	if numCell(t, a4, 1, 1) >= numCell(t, a4, 0, 1) {
		t.Errorf("A4: elimination did not reduce rows:\n%s", a4)
	}
	// A1: the materialized view is strictly larger than HProv.
	a1 := tabs[1]
	if numCell(t, a1, 1, 1) <= numCell(t, a1, 0, 1) {
		t.Errorf("A1: expansion should exceed HProv:\n%s", a1)
	}
	// A2: pruning commits fewer rows than append-only.
	a2 := tabs[2]
	if numCell(t, a2, 0, 1) > numCell(t, a2, 1, 1) {
		t.Errorf("A2: pruning should not exceed append-only:\n%s", a2)
	}
}

// TestMakeSequenceDeterministic: same config, same sequence.
func TestMakeSequenceDeterministic(t *testing.T) {
	rc := Quick()
	a := MakeSequence(rc, workload.Mix, workload.DelRandom, 100)
	b := MakeSequence(rc, workload.Mix, workload.DelRandom, 100)
	if a.String() != b.String() {
		t.Error("sequence generation not deterministic")
	}
}

// TestEnvCloseLeavesNothing: a simEnv built with no Dir keeps its stores in a
// scratch directory of its own, which Close removes with both stores
// closed — and so does a newSimEnv that fails after opening them.
func TestEnvCloseLeavesNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	rc := Quick()
	cfg := rc.envConfig(provstore.HierTrans, workload.Mix)
	cfg.Backend = relProv
	env, err := newSimEnv(cfg, rc.Costs)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Method = provstore.Method(99) // no tracker: fails after both stores open
	if _, err := newSimEnv(cfg, rc.Costs); err == nil {
		t.Fatal("newSimEnv with an unknown method succeeded")
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}
