package xmlstore

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/tree"
)

func TestMemStoreBasics(t *testing.T) {
	s := NewMem("T", figures.T0())
	if s.Name() != "T" {
		t.Error("Name wrong")
	}
	n, err := s.Get(path.MustParse("T/c1/y"))
	if err != nil || n.Value() != "3" {
		t.Fatalf("Get = %v, %v", n, err)
	}
	if !s.Has(path.MustParse("T/c5")) || s.Has(path.MustParse("T/zz")) {
		t.Error("Has wrong")
	}
	// Wrong database name rejected.
	if _, err := s.Get(path.MustParse("S1/a1")); err == nil {
		t.Error("foreign path should error")
	}
	// Get returns a copy.
	n.SetValue("999")
	n2, _ := s.Get(path.MustParse("T/c1/y"))
	if n2.Value() != "3" {
		t.Error("Get aliased internal state")
	}
}

func TestStoreUpdates(t *testing.T) {
	s := NewMem("T", figures.T0())
	if err := s.Insert(path.MustParse("T"), "c9", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(path.MustParse("T"), "c9", nil); err == nil {
		t.Error("duplicate insert should error")
	}
	if err := s.Insert(path.MustParse("T/zzz"), "x", nil); err == nil {
		t.Error("insert under missing parent should error")
	}
	if err := s.Insert(path.MustParse("T"), "bad", tree.Build(tree.M{"k": 1})); err == nil {
		t.Error("interior value should error")
	}
	if err := s.Insert(path.MustParse("T/c9"), "leaf", tree.NewLeaf("v")); err != nil {
		t.Fatal(err)
	}
	// Paste over an existing node and into a fresh label.
	sub := tree.Build(tree.M{"x": 7})
	if err := s.Paste(path.MustParse("T/c1"), sub); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(path.MustParse("T/c1"))
	if !got.Equal(sub) {
		t.Error("paste did not replace")
	}
	if err := s.Paste(path.MustParse("T/new"), sub); err != nil {
		t.Fatal(err)
	}
	if err := s.Paste(path.MustParse("T"), sub); err == nil {
		t.Error("paste over root should error")
	}
	if err := s.Paste(path.MustParse("T/a/b/c"), sub); err == nil {
		t.Error("paste under missing parent should error")
	}
	// Paste clones.
	sub.RemoveChild("x")
	if !s.Has(path.MustParse("T/new/x")) {
		t.Error("paste aliased the subtree")
	}
	// Delete.
	if err := s.Delete(path.MustParse("T/c5")); err != nil {
		t.Fatal(err)
	}
	if s.Has(path.MustParse("T/c5/x")) {
		t.Error("delete left subtree")
	}
	if err := s.Delete(path.MustParse("T/c5")); err == nil {
		t.Error("double delete should error")
	}
	if err := s.Delete(path.MustParse("T")); err == nil {
		t.Error("deleting root should error")
	}
}

func TestStorePersistence(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.xdb")
	s, err := Create("T", file, figures.T0())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(path.MustParse("T"), "added", tree.NewLeaf("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed store rejects everything.
	if _, err := s.Get(path.MustParse("T/c1")); !errors.Is(err, errClosed) {
		t.Errorf("closed Get: %v", err)
	}
	if err := s.Insert(path.MustParse("T"), "x", nil); !errors.Is(err, errClosed) {
		t.Errorf("closed Insert: %v", err)
	}

	s2, err := Open("T", file)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.Get(path.MustParse("T/added"))
	if err != nil || n.Value() != "1" {
		t.Fatalf("reopened Get = %v, %v", n, err)
	}
	want := figures.T0()
	want.AddChild("added", tree.NewLeaf("1"))
	if !s2.Snapshot().Equal(want) {
		t.Error("reopened snapshot mismatch")
	}
	if _, err := Open("T", filepath.Join(t.TempDir(), "missing.xdb")); err == nil {
		t.Error("opening missing file should error")
	}
}

// TestStoreRunsFigure3 drives the Figure 3 script through the store's
// update surface and checks the result equals T'.
func TestStoreRunsFigure3(t *testing.T) {
	target := NewMem("T", figures.T0())
	sources := map[string]*Store{
		"S1": NewMem("S1", figures.S1()),
		"S2": NewMem("S2", figures.S2()),
	}
	// Drive the script manually through the store surface (the wrapper
	// layer automates this; the point here is the store API itself).
	p := path.MustParse
	steps := []func() error{
		func() error { return target.Delete(p("T/c5")) },
		func() error {
			n, err := sources["S1"].Get(p("S1/a1/y"))
			if err != nil {
				return err
			}
			return target.Paste(p("T/c1/y"), n)
		},
		func() error { return target.Insert(p("T"), "c2", nil) },
		func() error {
			n, err := sources["S1"].Get(p("S1/a2"))
			if err != nil {
				return err
			}
			return target.Paste(p("T/c2"), n)
		},
		func() error { return target.Insert(p("T/c2"), "y", nil) },
		func() error {
			n, err := sources["S2"].Get(p("S2/b3/y"))
			if err != nil {
				return err
			}
			return target.Paste(p("T/c2/y"), n)
		},
		func() error {
			n, err := sources["S1"].Get(p("S1/a3"))
			if err != nil {
				return err
			}
			return target.Paste(p("T/c3"), n)
		},
		func() error { return target.Insert(p("T"), "c4", nil) },
		func() error {
			n, err := sources["S2"].Get(p("S2/b2"))
			if err != nil {
				return err
			}
			return target.Paste(p("T/c4"), n)
		},
		func() error { return target.Insert(p("T/c4"), "y", tree.NewLeaf("12")) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	if !target.Snapshot().Equal(figures.TPrime()) {
		t.Errorf("result != T':\n%s", target.Snapshot())
	}
}
