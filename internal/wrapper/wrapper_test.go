package wrapper_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/netsim"
	"repro/internal/path"
	"repro/internal/relstore"
	"repro/internal/tree"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"
)

func TestXMLTargetSurface(t *testing.T) {
	w := wrapper.NewXMLTarget(xmlstore.NewMem("T", figures.T0()))
	if w.Name() != "T" {
		t.Error("identity wrong")
	}
	tr, err := w.Tree()
	if err != nil || !tr.Equal(figures.T0()) {
		t.Fatalf("Tree: %v", err)
	}
	n, err := w.CopyNode(path.MustParse("T/c1"))
	if err != nil || n.Size() != 3 {
		t.Fatalf("CopyNode: %v, %v", n, err)
	}
	if !w.Has(path.MustParse("T/c5")) || w.Has(path.MustParse("T/zz")) {
		t.Error("Has wrong")
	}
	if err := w.AddNode(path.MustParse("T"), "c9", tree.NewLeaf("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.PasteNode(path.MustParse("T/c1"), tree.Build(tree.M{"k": 1})); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteNode(path.MustParse("T/c5")); err != nil {
		t.Fatal(err)
	}
	final, _ := w.Tree()
	if !final.HasChild("c9") || final.HasChild("c5") || !final.Child("c1").HasChild("k") {
		t.Errorf("updates lost: %s", final)
	}
}

func orgDB(t *testing.T) *relstore.DB {
	t.Helper()
	db, err := relstore.Open(filepath.Join(t.TempDir(), "s.rel"), true, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable(relstore.TableSchema{
		Name: "proteins",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TStr},
			{Name: "name", Type: relstore.TStr},
			{Name: "loc", Type: relstore.TStr},
		},
		Key: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []relstore.Row{
		{"p1", "abc1", "nucleus"},
		{"p2", "crp9", "golgi"},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestRelSourceFourLevelView(t *testing.T) {
	src := wrapper.NewRelSource("S", orgDB(t))
	if src.Name() != "S" {
		t.Error("name wrong")
	}
	view, err := src.Tree()
	if err != nil {
		t.Fatal(err)
	}
	// DB/R/tid/F: key columns fold into the tuple label.
	want := tree.Build(tree.M{
		"proteins": tree.M{
			"p1": tree.M{"name": "abc1", "loc": "nucleus"},
			"p2": tree.M{"name": "crp9", "loc": "golgi"},
		},
	})
	if !view.Equal(want) {
		t.Errorf("view = %s, want %s", view, want)
	}
	// CopyNode at every level of the four-level view.
	if n, err := src.CopyNode(path.MustParse("S")); err != nil || n.NumChildren() != 1 {
		t.Errorf("db level: %v, %v", n, err)
	}
	if n, err := src.CopyNode(path.MustParse("S/proteins")); err != nil || n.NumChildren() != 2 {
		t.Errorf("table level: %v, %v", n, err)
	}
	if n, err := src.CopyNode(path.MustParse("S/proteins/p2")); err != nil || n.Child("loc").Value() != "golgi" {
		t.Errorf("tuple level: %v, %v", n, err)
	}
	if n, err := src.CopyNode(path.MustParse("S/proteins/p2/name")); err != nil || n.Value() != "crp9" {
		t.Errorf("field level: %v, %v", n, err)
	}
	// Errors: below field level, unknown table, unknown tuple, wrong db.
	if _, err := src.CopyNode(path.MustParse("S/proteins/p2/name/deep")); err == nil {
		t.Error("below field level should fail")
	}
	if _, err := src.CopyNode(path.MustParse("S/nope/p1")); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := src.CopyNode(path.MustParse("S/proteins/p99")); err == nil {
		t.Error("unknown tuple should fail")
	}
	if _, err := src.CopyNode(path.MustParse("X/proteins/p1")); err == nil {
		t.Error("wrong db should fail")
	}
	if src.Has(path.MustParse("S/proteins/p99")) || !src.Has(path.MustParse("S/proteins/p1")) {
		t.Error("Has wrong")
	}
}

func TestRelSourceTableFilter(t *testing.T) {
	db := orgDB(t)
	// Expose no tables explicitly: all exported.
	all := wrapper.NewRelSource("S", db)
	if v, _ := all.Tree(); v.NumChildren() != 1 {
		t.Error("default should expose all tables")
	}
	// Filtered exposure hides other tables.
	db.CreateTable(relstore.TableSchema{
		Name:    "secrets",
		Columns: []relstore.Column{{Name: "k", Type: relstore.TStr}},
		Key:     []string{"k"},
	})
	filtered := wrapper.NewRelSource("S", db, "proteins")
	v, err := filtered.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if v.HasChild("secrets") {
		t.Error("filtered wrapper leaked a table")
	}
	if _, err := filtered.CopyNode(path.MustParse("S/secrets")); err == nil {
		t.Error("unexposed table should be invisible")
	}
}

func TestChargedWrappers(t *testing.T) {
	clock := netsim.NewClock()
	conn := netsim.NewConn("tgt", clock, netsim.CostModel{RTT: 100 * time.Millisecond, PerRecord: 10 * time.Millisecond})
	w := netsim.ChargeTarget(wrapper.NewXMLTarget(xmlstore.NewMem("T", figures.T0())), conn)

	if _, err := w.CopyNode(path.MustParse("T/c1")); err != nil {
		t.Fatal(err)
	}
	// Size-3 subtree: 100 + 30ms.
	if clock.Now() != 130*time.Millisecond {
		t.Errorf("CopyNode cost = %v", clock.Now())
	}
	if err := w.AddNode(path.MustParse("T"), "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteNode(path.MustParse("T/x")); err != nil {
		t.Fatal(err)
	}
	if err := w.PasteNode(path.MustParse("T/p"), tree.Build(tree.M{"a": 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Tree(); err != nil {
		t.Fatal(err)
	}
	if !w.Has(path.MustParse("T/p")) {
		t.Error("Has through charged wrapper")
	}
	st := conn.Stats()
	if st.Calls != 6 {
		t.Errorf("calls = %d, want 6", st.Calls)
	}

	// Faults abort before the store is touched.
	conn.InjectFaults(1.0, 1)
	if err := w.AddNode(path.MustParse("T"), "doomed", nil); !errors.Is(err, netsim.ErrNetwork) {
		t.Fatalf("fault: %v", err)
	}
	conn.InjectFaults(0, 0)
	if w.Has(path.MustParse("T/doomed")) {
		t.Error("failed round trip reached the store")
	}
	if w.Name() != "T" {
		t.Error("name through charged wrapper")
	}
}

func TestChargedSourceFaults(t *testing.T) {
	clock := netsim.NewClock()
	conn := netsim.NewConn("src", clock, netsim.CostModel{RTT: time.Millisecond})
	s := netsim.ChargeSource(wrapper.NewXMLTarget(xmlstore.NewMem("S", figures.S1())), conn)
	conn.InjectFaults(1.0, 2)
	if _, err := s.Tree(); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("Tree fault: %v", err)
	}
	if _, err := s.CopyNode(path.MustParse("S/a1")); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("CopyNode fault: %v", err)
	}
	if s.Has(path.MustParse("S/a1")) {
		t.Error("Has should fail closed under faults")
	}
}

// TestRelSourceCompositeKey: multi-column keys render as joined labels and
// resolve through the scan fallback.
func TestRelSourceCompositeKey(t *testing.T) {
	db, err := relstore.Open(filepath.Join(t.TempDir(), "c.rel"), true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(relstore.TableSchema{
		Name: "obs",
		Columns: []relstore.Column{
			{Name: "run", Type: relstore.TInt},
			{Name: "probe", Type: relstore.TStr},
			{Name: "value", Type: relstore.TStr},
		},
		Key: []string{"run", "probe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(relstore.Row{int64(1), "alpha", "0.5"})
	tbl.Insert(relstore.Row{int64(2), "beta", "0.7"})
	src := wrapper.NewRelSource("Obs", db)
	view, err := src.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if !view.Child("obs").HasChild("1|alpha") {
		t.Errorf("composite key label missing: %v", view.Child("obs").Labels())
	}
	n, err := src.CopyNode(path.MustParse("Obs/obs/2|beta/value"))
	if err != nil || n.Value() != "0.7" {
		t.Errorf("composite lookup: %v, %v", n, err)
	}
}
