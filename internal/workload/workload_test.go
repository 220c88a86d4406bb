package workload_test

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/path"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/workload"
)

func newGen(t *testing.T, p workload.Pattern, d workload.Deletion) *workload.Generator {
	t.Helper()
	target := dataset.GenMiMI(dataset.MiMIConfig{Entries: 30, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 1})
	source := dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 40, Seed: 2})
	return workload.New(workload.Config{
		Pattern:  p,
		Deletion: d,
		Seed:     7,
	}, target, source)
}

// allPatterns lists the patterns in Table 2 order.
var allPatterns = []workload.Pattern{workload.Add, workload.Delete, workload.Copy, workload.ACMix, workload.Mix, workload.Real}

// TestPatternParsing: every pattern renders its own Table 2 name.
func TestPatternParsing(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range allPatterns {
		if name := p.String(); seen[name] || strings.HasPrefix(name, "Pattern(") {
			t.Errorf("pattern %d renders %q", int(p), name)
		}
		seen[p.String()] = true
	}
	if workload.Pattern(99).String() == "" || workload.Deletion(99).String() == "" {
		t.Error("unknown values should render")
	}
}

// TestSequencesApply: every generated sequence applies cleanly to a fresh
// forest identical to the generator's view — the core validity contract.
func TestSequencesApply(t *testing.T) {
	for _, p := range allPatterns {
		target := dataset.GenMiMI(dataset.MiMIConfig{Entries: 30, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 1})
		source := dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 40, Seed: 2})
		gen := workload.New(workload.Config{Pattern: p, Seed: 7}, target, source)
		seq := gen.Sequence(300)
		if len(seq) != 300 {
			t.Fatalf("%v: generated %d ops", p, len(seq))
		}
		f := tree.NewForest()
		f.AddDB("T", target.Clone())
		f.AddDB("S", source.Clone())
		if n, err := seq.Apply(f); err != nil {
			t.Fatalf("%v: op %d failed: %v", p, n, err)
		}
		// The generator's mirror agrees with independent application.
		if !gen.TargetMirror().Equal(f.DB("T")) {
			t.Errorf("%v: mirror diverged from replay", p)
		}
	}
}

func TestPatternComposition(t *testing.T) {
	count := func(p workload.Pattern, d workload.Deletion) (ins, del, cop int) {
		seq := newGen(t, p, d).Sequence(600)
		for _, op := range seq {
			switch op.(type) {
			case update.Insert:
				ins++
			case update.Delete:
				del++
			case update.Copy:
				cop++
			}
		}
		return
	}
	if ins, del, cop := count(workload.Add, workload.DelRandom); ins != 600 || del != 0 || cop != 0 {
		t.Errorf("add pattern: %d/%d/%d", ins, del, cop)
	}
	if ins, del, cop := count(workload.Copy, workload.DelRandom); cop != 600 || ins != 0 || del != 0 {
		t.Errorf("copy pattern: %d/%d/%d", ins, del, cop)
	}
	// Deletes fall back to adds once the target empties, so use a target
	// large enough to absorb the run (the paper's 27 MB MiMI never
	// exhausted).
	bigTarget := dataset.GenMiMI(dataset.MiMIConfig{Entries: 600, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 1})
	source := dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 40, Seed: 2})
	delGen := workload.New(workload.Config{Pattern: workload.Delete, Seed: 7}, bigTarget, source)
	delSeq := delGen.Sequence(600)
	dels := 0
	for _, op := range delSeq {
		if _, ok := op.(update.Delete); ok {
			dels++
		}
	}
	if dels < 550 {
		t.Errorf("delete pattern on large target: only %d deletes of 600", dels)
	}
	ins, del, cop := count(workload.ACMix, workload.DelRandom)
	if del != 0 || ins < 200 || cop < 200 {
		t.Errorf("ac-mix: %d/%d/%d", ins, del, cop)
	}
	ins, del, cop = count(workload.Mix, workload.DelRandom)
	if ins < 120 || del < 120 || cop < 120 {
		t.Errorf("mix: %d/%d/%d", ins, del, cop)
	}
	// Real: 1 copy, 3 adds, 3 deletes per 7-op cycle.
	ins, del, cop = count(workload.Real, workload.DelRandom)
	if cop < 80 || ins < 3*cop-10 || del < 3*cop-10 {
		t.Errorf("real: %d/%d/%d", ins, del, cop)
	}
}

// TestCopiesAreSizeFour: every copy op copies a size-four subtree (§4.1).
func TestCopiesAreSizeFour(t *testing.T) {
	target := dataset.GenMiMI(dataset.MiMIConfig{Entries: 10, MaxPTMs: 1, MaxCitations: 1, MaxInteracts: 1, Seed: 1})
	source := dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 20, Seed: 2})
	gen := workload.New(workload.Config{Pattern: workload.Copy, Seed: 3}, target, source)
	f := tree.NewForest()
	f.AddDB("T", target.Clone())
	f.AddDB("S", source.Clone())
	for i := 0; i < 100; i++ {
		op := gen.Next().(update.Copy)
		n, err := f.Get(op.Src)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if n.Size() != 4 {
			t.Fatalf("op %d copies subtree of size %d", i, n.Size())
		}
		if err := op.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeletionTargeting: del-add deletes only previously added nodes,
// del-copy only copied ones (until the pools empty).
func TestDeletionTargeting(t *testing.T) {
	gen := newGen(t, workload.Mix, workload.DelAdd)
	added := map[string]bool{}
	for i := 0; i < 400; i++ {
		op := gen.Next()
		switch op := op.(type) {
		case update.Insert:
			added[op.Into.Child(op.Label).String()] = true
		case update.Delete:
			victim := op.From.Child(op.Label).String()
			if len(added) > 0 && !added[victim] {
				t.Fatalf("del-add deleted non-added node %s", victim)
			}
			delete(added, victim)
		}
	}

	genC := newGen(t, workload.Mix, workload.DelCopy)
	copied := map[string]bool{}
	sawCopiedDelete := false
	for i := 0; i < 400; i++ {
		op := genC.Next()
		switch op := op.(type) {
		case update.Copy:
			copied[op.Dst.String()] = true
		case update.Delete:
			victim := op.From.Child(op.Label)
			if copied[victim.String()] {
				sawCopiedDelete = true
			} else {
				// Must be a descendant of a copied root, or the
				// copied pool was empty (fallback).
				under := false
				for c := range copied {
					if mustPath(c).IsPrefixOf(victim) {
						under = true
						break
					}
				}
				if len(copied) > 0 && !under {
					t.Fatalf("del-copy deleted non-copied node %s", victim)
				}
			}
		}
	}
	if !sawCopiedDelete {
		t.Error("del-copy never deleted a copied node")
	}
}

func mustPath(s string) path.Path { return path.MustParse(s) }

// TestRealPatternShape: the real pattern's adds land under the copied
// subtree root and its deletes remove the copied subtree's original
// children.
func TestRealPatternShape(t *testing.T) {
	gen := newGen(t, workload.Real, workload.DelRandom)
	for cycle := 0; cycle < 20; cycle++ {
		cop := gen.Next().(update.Copy)
		for i := 0; i < 3; i++ {
			ins, ok := gen.Next().(update.Insert)
			if !ok {
				t.Fatalf("cycle %d: op %d not an insert", cycle, i)
			}
			if !ins.Into.Equal(cop.Dst) {
				t.Fatalf("cycle %d: add under %s, want %s", cycle, ins.Into, cop.Dst)
			}
		}
		for i := 0; i < 3; i++ {
			del, ok := gen.Next().(update.Delete)
			if !ok {
				t.Fatalf("cycle %d: op %d not a delete", cycle, i)
			}
			victim := del.From.Child(del.Label)
			if !cop.Dst.IsPrefixOf(victim) {
				t.Fatalf("cycle %d: delete of %s outside copied subtree %s", cycle, victim, cop.Dst)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := newGen(t, workload.Mix, workload.DelMix).Sequence(200)
	b := newGen(t, workload.Mix, workload.DelMix).Sequence(200)
	if a.String() != b.String() {
		t.Error("same seed must generate the same sequence")
	}
	c := workload.New(workload.Config{Pattern: workload.Mix, Seed: 8},
		dataset.GenMiMI(dataset.MiMIConfig{Entries: 30, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 1}),
		dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 40, Seed: 2})).Sequence(200)
	if a.String() == c.String() {
		t.Error("different seeds should differ")
	}
}

func TestDefaultNames(t *testing.T) {
	gen := workload.New(workload.Config{Pattern: workload.Add, Seed: 1},
		tree.Build(tree.M{"x": tree.M{}}), tree.Build(tree.M{"p": tree.M{"a": 1, "b": 2, "c": 3}}))
	op := gen.Next().(update.Insert)
	if op.Into.DB() != "T" {
		t.Errorf("default target name: %s", op.Into.DB())
	}
}

// TestDeleteExhaustionFallback: a delete-only workload on a tiny target
// falls back to adds rather than stalling.
func TestDeleteExhaustionFallback(t *testing.T) {
	gen := workload.New(workload.Config{Pattern: workload.Delete, Seed: 1},
		tree.Build(tree.M{"only": 1}),
		tree.Build(tree.M{"p": tree.M{"a": 1, "b": 2, "c": 3}}))
	seq := gen.Sequence(50)
	if len(seq) != 50 {
		t.Fatalf("generated %d ops", len(seq))
	}
	adds := 0
	for _, op := range seq {
		if _, ok := op.(update.Insert); ok {
			adds++
		}
	}
	if adds == 0 {
		t.Error("expected fallback adds on an exhausted target")
	}
}
