package dataset_test

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/path"
	"repro/internal/relstore"
	"repro/internal/tree"
	"repro/internal/wrapper"
)

func TestGenMiMIShape(t *testing.T) {
	cfg := dataset.MiMIConfig{Entries: 50, MaxPTMs: 3, MaxCitations: 3, MaxInteracts: 4, Seed: 1}
	root := dataset.GenMiMI(cfg)
	if root.NumChildren() != 50 {
		t.Fatalf("entries = %d", root.NumChildren())
	}
	// Every entry has name and organism leaves; nested subtrees are
	// well-formed (walk would fail on malformed labels).
	for _, l := range root.Labels() {
		e := root.Child(l)
		if !e.HasChild("name") || !e.HasChild("organism") {
			t.Fatalf("entry %s missing mandatory fields", l)
		}
	}
	// Deterministic.
	again := dataset.GenMiMI(cfg)
	if !root.Equal(again) {
		t.Error("GenMiMI not deterministic")
	}
	other := dataset.GenMiMI(dataset.MiMIConfig{Entries: 50, MaxPTMs: 3, MaxCitations: 3, MaxInteracts: 4, Seed: 99})
	if root.Equal(other) {
		t.Error("different seeds should differ")
	}
}

func TestGenOrganelleShape(t *testing.T) {
	cfg := dataset.OrganelleConfig{Proteins: 30, Seed: 2}
	root := dataset.GenOrganelleTree(cfg)
	if root.NumChildren() != 30 {
		t.Fatalf("proteins = %d", root.NumChildren())
	}
	// Every protein is the size-four subtree the experiments copy.
	for _, l := range root.Labels() {
		p := root.Child(l)
		if p.Size() != 4 || p.NumChildren() != 3 {
			t.Fatalf("protein %s has size %d (%d children)", l, p.Size(), p.NumChildren())
		}
	}
	if !root.Equal(dataset.GenOrganelleTree(cfg)) {
		t.Error("GenOrganelleTree not deterministic")
	}
}

// TestRelationalViewMatchesTree: the wrapped relational OrganelleDB exposes
// the same entries as the tree generator (the substitution DESIGN.md
// documents).
func TestRelationalViewMatchesTree(t *testing.T) {
	cfg := dataset.OrganelleConfig{Proteins: 25, Seed: 5}
	db, err := relstore.Open(filepath.Join(t.TempDir(), "org.rel"), true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := dataset.LoadOrganelleDB(db, cfg); err != nil {
		t.Fatal(err)
	}
	src := wrapper.NewRelSource("O", db)
	view, err := src.Tree()
	if err != nil {
		t.Fatal(err)
	}
	tbl := view.Child("proteins")
	if tbl == nil || tbl.NumChildren() != 25 {
		t.Fatalf("view = %v", view.Labels())
	}
	want := dataset.GenOrganelleTree(cfg)
	for _, l := range want.Labels() {
		got := tbl.Child(l)
		if got == nil {
			t.Fatalf("view missing %s", l)
		}
		if !got.Equal(want.Child(l)) {
			t.Errorf("view entry %s = %s, want %s", l, got, want.Child(l))
		}
		if got.Size() != 4 {
			t.Errorf("view entry %s has size %d, want 4", l, got.Size())
		}
	}
	// Point access through the wrapper.
	n, err := src.CopyNode(path.MustParse("O/proteins/protein{3}/name"))
	if err != nil || !n.IsLeaf() {
		t.Errorf("CopyNode leaf: %v, %v", n, err)
	}
	// Schema sanity.
	if dataset.OrganelleSchema().Name != "proteins" {
		t.Error("schema name wrong")
	}
	// Double load fails (table exists).
	if err := dataset.LoadOrganelleDB(db, cfg); err == nil {
		t.Error("double load should fail")
	}
}

func TestDefaults(t *testing.T) {
	if dataset.DefaultMiMI.Entries <= 0 || dataset.DefaultOrganelle.Proteins <= 0 {
		t.Error("defaults must be positive")
	}
	root := dataset.GenMiMI(dataset.DefaultMiMI)
	if root.Size() < dataset.DefaultMiMI.Entries {
		t.Error("default MiMI too small")
	}
	var _ *tree.Node = root
}
