// Package workload generates the update sequences of the paper's
// evaluation: the six update patterns of Table 2 (add, delete, copy,
// ac-mix, mix, real) and the five deletion patterns of Table 3 (del-random,
// del-add, del-copy, del-mix, del-real).
//
// A Generator owns a mirror of the target database, so every emitted
// operation is valid by construction; copies are subtrees of size four from
// the source (a parent with three children), exactly as in §4.1.
// Generation is deterministic given the seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/path"
	"repro/internal/tree"
	"repro/internal/update"
)

// Pattern is one of the update patterns of Table 2.
type Pattern int

// The update patterns.
const (
	Add    Pattern = iota // all random adds
	Delete                // all random deletes
	Copy                  // all random copies
	ACMix                 // equal mix of random adds and copies
	Mix                   // equal mix of random adds, deletes, copies
	Real                  // copy one subtree, add 3 nodes, delete 3 nodes
)

// String returns the paper's name for the pattern.
func (p Pattern) String() string {
	switch p {
	case Add:
		return "add"
	case Delete:
		return "delete"
	case Copy:
		return "copy"
	case ACMix:
		return "ac-mix"
	case Mix:
		return "mix"
	case Real:
		return "real"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Deletion is one of the deletion patterns of Table 3, governing which
// nodes the delete operations of a mix-family pattern target.
type Deletion int

// The deletion patterns.
const (
	DelRandom Deletion = iota // paths deleted at random
	DelAdd                    // all added paths deleted
	DelCopy                   // only copies deleted
	DelMix                    // 50-50 mix of adds and copies deleted
	DelReal                   // 3 nodes from copied subtree deleted
)

// AllDeletions lists the deletion patterns in Table 3 order.
var AllDeletions = []Deletion{DelRandom, DelAdd, DelCopy, DelMix, DelReal}

// String returns the paper's name for the deletion pattern.
func (d Deletion) String() string {
	switch d {
	case DelRandom:
		return "del-random"
	case DelAdd:
		return "del-add"
	case DelCopy:
		return "del-copy"
	case DelMix:
		return "del-mix"
	case DelReal:
		return "del-real"
	default:
		return fmt.Sprintf("Deletion(%d)", int(d))
	}
}

// Config configures a Generator.
type Config struct {
	Pattern    Pattern
	Deletion   Deletion // used by Delete/Mix patterns; default DelRandom
	Seed       int64
	TargetName string // default "T"
	SourceName string // default "S"
}

// A Generator emits one valid operation at a time, maintaining a private
// mirror of the target so operations always apply.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	forest *tree.Forest

	all      *pathSet // every live target node (absolute), excluding the root
	interior *pathSet // live nodes that can take children (including the root)
	added    *pathSet // live nodes created by add operations
	copied   *pathSet // live nodes created by copy operations

	srcRoots []path.Path // copyable size-four subtree roots in the source

	// real-pattern state
	realStep     int
	realRoot     path.Path
	realVictims  []path.Path
	lastCopyKids []path.Path

	fresh int
}

// New builds a generator over snapshots of the target and source trees.
func New(cfg Config, target, source *tree.Node) *Generator {
	if cfg.TargetName == "" {
		cfg.TargetName = "T"
	}
	if cfg.SourceName == "" {
		cfg.SourceName = "S"
	}
	g := &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		forest:   tree.NewForest(),
		all:      newPathSet(),
		interior: newPathSet(),
		added:    newPathSet(),
		copied:   newPathSet(),
	}
	g.forest.AddDB(cfg.TargetName, target.Clone())
	g.forest.AddDB(cfg.SourceName, source.Clone())
	troot := path.New(cfg.TargetName)
	g.interior.add(troot)
	target.Walk(func(rel path.Path, n *tree.Node) error {
		if rel.IsRoot() {
			return nil
		}
		p := troot.Join(rel)
		g.all.add(p)
		if !n.IsLeaf() {
			g.interior.add(p)
		}
		return nil
	})
	sroot := path.New(cfg.SourceName)
	// The experiments copy "subtrees of size four (a parent with three
	// children)" (§4.1). Collect every such subtree wherever it sits in
	// the source view — directly under the root for a tree source, at
	// tuple level (DB/R/tid) for a wrapped relational source.
	source.Walk(func(rel path.Path, n *tree.Node) error {
		if !rel.IsRoot() && n.Size() == 4 && n.NumChildren() == 3 {
			g.srcRoots = append(g.srcRoots, sroot.Join(rel))
		}
		return nil
	})
	if len(g.srcRoots) == 0 {
		// Degenerate sources: fall back to copying top-level entries.
		for _, l := range source.Labels() {
			g.srcRoots = append(g.srcRoots, sroot.Child(l))
		}
	}
	return g
}

// TargetMirror returns a copy of the generator's view of the target.
func (g *Generator) TargetMirror() *tree.Node {
	return g.forest.DB(g.cfg.TargetName).Clone()
}

// Next returns the next operation of the configured pattern. The operation
// has already been validated (and applied) against the generator's mirror.
func (g *Generator) Next() update.Op {
	switch g.cfg.Pattern {
	case Add:
		return g.genAdd()
	case Delete:
		return g.genDelete()
	case Copy:
		return g.genCopy()
	case ACMix:
		if g.rng.Intn(2) == 0 {
			return g.genAdd()
		}
		return g.genCopy()
	case Mix:
		switch g.rng.Intn(3) {
		case 0:
			return g.genAdd()
		case 1:
			return g.genDelete()
		default:
			return g.genCopy()
		}
	case Real:
		return g.genReal()
	default:
		panic(fmt.Sprintf("workload: bad pattern %v", g.cfg.Pattern))
	}
}

// Sequence generates n operations.
func (g *Generator) Sequence(n int) update.Sequence {
	seq := make(update.Sequence, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, g.Next())
	}
	return seq
}

// --- operation builders ----------------------------------------------------

func (g *Generator) apply(op update.Op) update.Op {
	if err := op.Apply(g.forest); err != nil {
		panic(fmt.Sprintf("workload: generated invalid op %s: %v", op, err))
	}
	return op
}

func (g *Generator) genAdd() update.Op {
	parent, _ := g.interior.random(g.rng)
	g.fresh++
	label := fmt.Sprintf("w%d", g.fresh)
	child := parent.Child(label)
	op := g.apply(update.Insert{Into: parent, Label: label})
	g.all.add(child)
	g.interior.add(child) // adds create empty (interior) nodes
	g.added.add(child)
	return op
}

func (g *Generator) genCopy() update.Op {
	src := g.srcRoots[g.rng.Intn(len(g.srcRoots))]
	parent, _ := g.interior.random(g.rng)
	g.fresh++
	dst := parent.Child(fmt.Sprintf("p%d", g.fresh))
	op := g.apply(update.Copy{Src: src, Dst: dst})
	node, err := g.forest.Get(dst)
	if err != nil {
		panic(err)
	}
	g.lastCopyKids = g.lastCopyKids[:0]
	node.Walk(func(rel path.Path, n *tree.Node) error {
		p := dst.Join(rel)
		g.all.add(p)
		g.copied.add(p)
		if !n.IsLeaf() {
			g.interior.add(p)
		}
		if rel.Len() == 1 {
			g.lastCopyKids = append(g.lastCopyKids, p)
		}
		return nil
	})
	return op
}

// genDelete picks a victim per the configured deletion pattern and deletes
// its subtree. When the preferred victim pool is empty it falls back to a
// random victim; when the target has no deletable node at all it emits an
// add instead, so sequences always have the requested length.
func (g *Generator) genDelete() update.Op {
	victim, ok := g.pickVictim()
	if !ok {
		return g.genAdd()
	}
	doomed := g.subtreePaths(victim)
	op := g.apply(update.Delete{From: victim.MustParent(), Label: victim.Base()})
	g.forget(doomed)
	return op
}

// subtreePaths enumerates the victim subtree from the mirror before it is
// deleted, so set maintenance is O(subtree) rather than O(set).
func (g *Generator) subtreePaths(root path.Path) []path.Path {
	node, err := g.forest.Get(root)
	if err != nil {
		panic(err)
	}
	var out []path.Path
	node.Walk(func(rel path.Path, _ *tree.Node) error {
		out = append(out, root.Join(rel))
		return nil
	})
	return out
}

func (g *Generator) pickVictim() (path.Path, bool) {
	pick := func(s *pathSet) (path.Path, bool) {
		if s.len() == 0 {
			return g.all.random(g.rng)
		}
		return s.random(g.rng)
	}
	switch g.cfg.Deletion {
	case DelAdd:
		return pick(g.added)
	case DelCopy:
		return pick(g.copied)
	case DelMix:
		if g.rng.Intn(2) == 0 {
			return pick(g.added)
		}
		return pick(g.copied)
	case DelReal:
		for len(g.lastCopyKids) > 0 {
			v := g.lastCopyKids[0]
			g.lastCopyKids = g.lastCopyKids[1:]
			if g.all.has(v) {
				return v, true
			}
		}
		return g.all.random(g.rng)
	default: // DelRandom
		return g.all.random(g.rng)
	}
}

// forget removes the pre-enumerated deleted paths from the tracking sets.
func (g *Generator) forget(doomed []path.Path) {
	for _, p := range doomed {
		g.all.remove(p)
		g.interior.remove(p)
		g.added.remove(p)
		g.copied.remove(p)
	}
}

// genReal emits the paper's "real" pattern: a regular cycle of one
// size-four copy, three adds under the copied root, and three deletes of
// the copied subtree's original elements — the shape of a bulk curation
// script ("could be performed via a standard XQuery statement").
func (g *Generator) genReal() update.Op {
	defer func() { g.realStep = (g.realStep + 1) % 7 }()
	switch {
	case g.realStep == 0:
		op := g.genCopy()
		g.realRoot = op.(update.Copy).Dst
		g.realVictims = append(g.realVictims[:0], g.lastCopyKids...)
		return op
	case g.realStep <= 3:
		// Add under the copied subtree root.
		if !g.interior.has(g.realRoot) {
			return g.genAdd()
		}
		g.fresh++
		label := fmt.Sprintf("w%d", g.fresh)
		child := g.realRoot.Child(label)
		op := g.apply(update.Insert{Into: g.realRoot, Label: label})
		g.all.add(child)
		g.interior.add(child)
		g.added.add(child)
		return op
	default:
		// Delete one of the copied subtree's original elements.
		for len(g.realVictims) > 0 {
			v := g.realVictims[0]
			g.realVictims = g.realVictims[1:]
			if g.all.has(v) {
				doomed := g.subtreePaths(v)
				op := g.apply(update.Delete{From: v.MustParent(), Label: v.Base()})
				g.forget(doomed)
				return op
			}
		}
		return g.genDelete()
	}
}

// --- pathSet ----------------------------------------------------------------

// pathSet is a set of paths supporting O(1) add, remove, membership, and
// uniform random pick (swap-delete keeps the backing slice dense).
type pathSet struct {
	items []path.Path
	index map[path.Path]int
}

func newPathSet() *pathSet {
	return &pathSet{index: make(map[path.Path]int)}
}

func (s *pathSet) len() int { return len(s.items) }

func (s *pathSet) add(p path.Path) {
	if _, ok := s.index[p]; ok {
		return
	}
	s.index[p] = len(s.items)
	s.items = append(s.items, p)
}

func (s *pathSet) has(p path.Path) bool {
	_, ok := s.index[p]
	return ok
}

func (s *pathSet) remove(p path.Path) {
	i, ok := s.index[p]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.index[s.items[i]] = i
	s.items = s.items[:last]
	delete(s.index, p)
}

func (s *pathSet) random(r *rand.Rand) (path.Path, bool) {
	if len(s.items) == 0 {
		return path.Path{}, false
	}
	return s.items[r.Intn(len(s.items))], true
}
