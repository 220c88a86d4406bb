// Package update implements the atomic update language of Buneman, Chapman &
// Cheney (SIGMOD 2006, §2):
//
//	u ::= ins {a : v} into p | del a from p | copy q into p
//
// together with its semantics on forests of trees, the per-operation
// *effect* computation used by provenance tracking, and a parser for the
// textual script form used in the paper's Figure 3.
package update

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/path"
	"repro/internal/tree"
)

// Errors returned by update application.
var (
	errBadOp       = errors.New("update: malformed operation")
	ErrParse       = errors.New("update: parse error")
	ErrRootTarget  = errors.New("update: operation must address a node inside a database")
	ErrCopyMissing = errors.New("update: copy destination parent missing")
)

// An Op is one atomic update operation. The concrete types are Insert,
// Delete and Copy.
type Op interface {
	// Apply executes the operation against the forest, mutating the
	// target database in place.
	Apply(f *tree.Forest) error
	// Effect computes the operation's per-node effect against the
	// forest state *before* application; see Effect.
	Effect(f *tree.Forest) (Effect, error)
	// String renders the operation in the paper's script syntax.
	String() string
}

// Insert is `ins {Label : Value} into Into`: it adds a new edge under the
// node at Into. Value must be an empty tree or a leaf (the paper restricts v
// to the empty tree or a data value), so an insert always creates exactly
// one node.
type Insert struct {
	Into  path.Path
	Label string
	Value *tree.Node // nil means the empty tree {}
}

// Delete is `del Label from From`: it removes the edge Label under the node
// at From, together with the entire subtree below it.
type Delete struct {
	From  path.Path
	Label string
}

// Copy is `copy Src into Dst`: it replaces the subtree at Dst with a deep
// copy of the subtree at Src. Following the paper's own usage (Figure 3,
// operation 7 copies into T/c3 which does not yet exist), the destination
// edge is created if absent, but the destination's parent must exist.
type Copy struct {
	Src path.Path
	Dst path.Path
}

// An Effect describes exactly which nodes an operation inserts, deletes, or
// copies, as absolute paths, evaluated against the pre-state. This is the
// raw material of provenance tracking: the naïve method stores one record
// per entry here.
type Effect struct {
	// Inserted lists newly created node locations (for Insert, exactly
	// one; for Copy, none — copied nodes are Copied, not Inserted).
	Inserted []path.Path
	// Deleted lists node locations removed from the pre-state. For
	// Delete this is the whole subtree; for Copy it is the overwritten
	// subtree at the destination, if any (the paper's provenance model
	// does not record these as D rows — the copy subsumes them — but the
	// transactional store needs them to prune its active list).
	Deleted []path.Path
	// Copied lists (dst, src) location pairs, one per node of the copied
	// subtree, dst under the copy destination and src under the copy
	// source. Copied[0] is always the pair of subtree roots.
	Copied []copyPair
	// Overwritten reports whether a Copy replaced an existing subtree.
	Overwritten bool
}

// copyPair relates one copied node location to its source location.
type copyPair struct {
	Dst path.Path
	Src path.Path
}

func (op Insert) value() *tree.Node {
	if op.Value == nil {
		return tree.NewTree()
	}
	return op.Value
}

func (op Insert) target() (path.Path, error) {
	if op.Into.IsRoot() {
		return path.Root, fmt.Errorf("%w: insert into forest root", ErrRootTarget)
	}
	return op.Into.TryChild(op.Label)
}

// Apply implements Op. It fails if Into is missing, if the label already
// exists there (t ⊎ {a:v} fails on shared labels), or if the value is an
// interior tree with children.
func (op Insert) Apply(f *tree.Forest) error {
	v := op.value()
	if !v.IsLeaf() && v.NumChildren() > 0 {
		return fmt.Errorf("%w: insert value must be a data value or the empty tree", errBadOp)
	}
	parent, err := f.Get(op.Into)
	if err != nil {
		return err
	}
	return parent.AddChild(op.Label, v.Clone())
}

// Effect implements Op: an insert creates exactly one node.
func (op Insert) Effect(f *tree.Forest) (Effect, error) {
	loc, err := op.target()
	if err != nil {
		return Effect{}, err
	}
	parent, err := f.Get(op.Into)
	if err != nil {
		return Effect{}, err
	}
	if parent.HasChild(op.Label) {
		return Effect{}, fmt.Errorf("%w: %q", tree.ErrDupEdge, loc)
	}
	return Effect{Inserted: []path.Path{loc}}, nil
}

// String renders the op in the paper's syntax, e.g. `insert {y : 12} into T/c4`.
func (op Insert) String() string {
	v := "{}"
	if op.Value != nil && op.Value.IsLeaf() {
		v = quoteValue(op.Value.Value())
	}
	return fmt.Sprintf("insert {%s : %s} into %s", op.Label, v, op.Into)
}

// Apply implements Op.
func (op Delete) Apply(f *tree.Forest) error {
	if op.From.IsRoot() {
		return fmt.Errorf("%w: delete from forest root", ErrRootTarget)
	}
	parent, err := f.Get(op.From)
	if err != nil {
		return err
	}
	return parent.RemoveChild(op.Label)
}

// Effect implements Op: a delete removes the full subtree under From/Label.
func (op Delete) Effect(f *tree.Forest) (Effect, error) {
	loc, err := op.From.TryChild(op.Label)
	if err != nil {
		return Effect{}, err
	}
	node, err := f.Get(loc)
	if err != nil {
		return Effect{}, err
	}
	var eff Effect
	node.Walk(func(rel path.Path, _ *tree.Node) error {
		eff.Deleted = append(eff.Deleted, loc.Join(rel))
		return nil
	})
	return eff, nil
}

// String renders the op in the paper's syntax, e.g. `delete c5 from T`.
func (op Delete) String() string {
	return fmt.Sprintf("delete %s from %s", op.Label, op.From)
}

// Apply implements Op: t[Dst := t.Src], cloning the source subtree.
func (op Copy) Apply(f *tree.Forest) error {
	src, err := f.Get(op.Src)
	if err != nil {
		return err
	}
	if op.Dst.Len() < 2 {
		// The destination must be a node inside a database: overwriting
		// an entire database root is not a copy-paste action.
		return fmt.Errorf("%w: copy destination %q", ErrRootTarget, op.Dst)
	}
	parent, err := f.Get(op.Dst.MustParent())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCopyMissing, err)
	}
	return parent.SetChild(op.Dst.Base(), src.Clone())
}

// Effect implements Op: one copyPair per node of the copied subtree, plus
// the overwritten destination subtree (if any) in Deleted.
func (op Copy) Effect(f *tree.Forest) (Effect, error) {
	src, err := f.Get(op.Src)
	if err != nil {
		return Effect{}, err
	}
	if op.Dst.Len() < 2 {
		return Effect{}, fmt.Errorf("%w: copy destination %q", ErrRootTarget, op.Dst)
	}
	if _, err := f.Get(op.Dst.MustParent()); err != nil {
		return Effect{}, fmt.Errorf("%w: %v", ErrCopyMissing, err)
	}
	var eff Effect
	src.Walk(func(rel path.Path, _ *tree.Node) error {
		eff.Copied = append(eff.Copied, copyPair{Dst: op.Dst.Join(rel), Src: op.Src.Join(rel)})
		return nil
	})
	if old, err := f.Get(op.Dst); err == nil {
		eff.Overwritten = true
		old.Walk(func(rel path.Path, _ *tree.Node) error {
			eff.Deleted = append(eff.Deleted, op.Dst.Join(rel))
			return nil
		})
	}
	return eff, nil
}

// String renders the op in the paper's syntax, e.g. `copy S1/a1/y into T/c1/y`.
func (op Copy) String() string {
	return fmt.Sprintf("copy %s into %s", op.Src, op.Dst)
}

// A Sequence is a sequence of atomic updates u1; ...; un.
type Sequence []Op

// Apply runs every operation in order; it stops at the first error,
// returning the index of the failing op.
func (s Sequence) Apply(f *tree.Forest) (int, error) {
	for i, op := range s {
		if err := op.Apply(f); err != nil {
			return i, fmt.Errorf("update: op %d (%s): %w", i+1, op, err)
		}
	}
	return len(s), nil
}

// String renders the sequence as a numbered script in the style of the
// paper's Figure 3.
func (s Sequence) String() string {
	var b strings.Builder
	for i, op := range s {
		fmt.Fprintf(&b, "(%d) %s;\n", i+1, op)
	}
	return b.String()
}

func quoteValue(v string) string {
	if v == "" || strings.ContainsAny(v, " \t{}:;\"") {
		return fmt.Sprintf("%q", v)
	}
	return v
}
