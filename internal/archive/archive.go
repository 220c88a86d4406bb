// Package archive implements version archiving for the target database and
// the lost-source reconstruction the paper argues for in §5:
//
//   - Archiving keeps a snapshot of the target at every committed
//     transaction, keyed by transaction id, so provenance links "relate data
//     locations in T with locations in previous versions of T". The paper's
//     position is that "both provenance recording and archiving are
//     necessary in order to preserve completely the scientific record".
//
//   - Data availability: "suppose two databases T1 and T2 are constructed
//     using data from S ... and later S disappears. We can still be fairly
//     certain about the contents of S, since we can use the provenance
//     records of T1 and T2 to partially reconstruct S."
package archive

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/tree"
)

// An Archive stores committed versions of one database, keyed by the
// transaction that produced them. Version 0 is the initial state.
type Archive struct {
	mu       sync.RWMutex
	db       string
	versions map[int64]*tree.Node
	order    []int64
}

// New returns an archive for the named database with its initial version.
func New(db string, initial *tree.Node) *Archive {
	a := &Archive{db: db, versions: make(map[int64]*tree.Node)}
	a.versions[0] = initial.Clone()
	a.order = []int64{0}
	return a
}

// DB returns the archived database's name.
func (a *Archive) DB() string { return a.db }

// Record stores the version produced by transaction tid.
func (a *Archive) Record(tid int64, state *tree.Node) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.versions[tid]; dup {
		return fmt.Errorf("archive: version %d already recorded", tid)
	}
	if len(a.order) > 0 && tid < a.order[len(a.order)-1] {
		return fmt.Errorf("archive: version %d older than newest %d", tid, a.order[len(a.order)-1])
	}
	a.versions[tid] = state.Clone()
	a.order = append(a.order, tid)
	return nil
}

// Versions lists the recorded transaction ids in order.
func (a *Archive) Versions() []int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]int64, len(a.order))
	copy(out, a.order)
	return out
}

// At returns the version produced by transaction tid exactly.
func (a *Archive) At(tid int64) (*tree.Node, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	v, ok := a.versions[tid]
	if !ok {
		return nil, false
	}
	return v.Clone(), true
}

// AsOf returns the newest version at or before tid — the state the database
// had at the end of transaction tid.
func (a *Archive) AsOf(tid int64) (*tree.Node, int64, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	i := sort.Search(len(a.order), func(i int) bool { return a.order[i] > tid })
	if i == 0 {
		return nil, 0, false
	}
	v := a.order[i-1]
	return a.versions[v].Clone(), v, true
}

// Diff summarizes the node-level difference between two versions: paths
// only in a, only in b, and present in both but with different values.
type Diff struct {
	OnlyA   []path.Path
	OnlyB   []path.Path
	Changed []path.Path
}

// DiffVersions computes the difference between the versions produced by
// transactions ta and tb.
func (a *Archive) DiffVersions(ta, tb int64) (Diff, error) {
	va, oka := a.At(ta)
	vb, okb := a.At(tb)
	if !oka || !okb {
		return Diff{}, fmt.Errorf("archive: missing version (%d:%v, %d:%v)", ta, oka, tb, okb)
	}
	var d Diff
	leavesA := collect(va)
	leavesB := collect(vb)
	for p, na := range leavesA {
		nb, ok := leavesB[p]
		if !ok {
			d.OnlyA = append(d.OnlyA, path.MustParse(p))
			continue
		}
		if na != nb {
			d.Changed = append(d.Changed, path.MustParse(p))
		}
	}
	for p := range leavesB {
		if _, ok := leavesA[p]; !ok {
			d.OnlyB = append(d.OnlyB, path.MustParse(p))
		}
	}
	sortPaths(d.OnlyA)
	sortPaths(d.OnlyB)
	sortPaths(d.Changed)
	return d, nil
}

func collect(n *tree.Node) map[string]string {
	out := make(map[string]string)
	n.Walk(func(rel path.Path, node *tree.Node) error {
		if rel.IsRoot() {
			return nil
		}
		key := rel.String()
		if node.IsLeaf() {
			out[key] = "=" + node.Value()
		} else {
			out[key] = "{}"
		}
		return nil
	})
	return out
}

func sortPaths(ps []path.Path) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// --- lost-source reconstruction ---------------------------------------------

// A Witness is one database that copied data from the lost source: its
// provenance backend plus an archive (or at least the current state) of its
// data.
type Witness struct {
	DB      string
	Backend provstore.Backend
	// State is the witness database's content (current version).
	State *tree.Node
}

// Reconstructed is a partial reconstruction of a lost source database.
type Reconstructed struct {
	// Tree is the reconstructed content: every subtree some witness
	// copied, placed at its source location.
	Tree *tree.Node
	// Evidence maps reconstructed source paths to the witnesses whose
	// provenance vouches for them.
	Evidence map[string][]string
	// Conflicts lists source paths where witnesses disagree about the
	// value (possible silent changes of S between the copies, or errors
	// in a witness).
	Conflicts []path.Path
}

// Reconstruct rebuilds what can be known about the lost source database
// lost from the provenance stores and current states of the witnesses.
// For every copy record whose Src lies in the lost database and whose
// destination data still exists in the witness, the witness's current data
// is placed at the source location.
//
// The reconstruction is partial ("this information may be better than
// nothing", §5): data never copied is unrecoverable, and data modified in
// the witness after copying reconstructs to the modified value, flagged as
// a conflict when two witnesses disagree.
func Reconstruct(ctx context.Context, lost string, witnesses []Witness) (*Reconstructed, error) {
	res := &Reconstructed{
		Tree:     tree.NewTree(),
		Evidence: make(map[string][]string),
	}
	conflict := make(map[string]bool)
	for _, w := range witnesses {
		// One All() cursor per witness streams its whole provenance
		// relation in (Tid, Loc) order — the same order the per-transaction
		// walk produced, in one round trip instead of one per transaction.
		for r, err := range w.Backend.Scan(ctx, provstore.All()) {
			if err != nil {
				return nil, err
			}
			if r.Op != provstore.OpCopy || r.Src.DB() != lost {
				continue
			}
			// The copied data as the witness holds it now.
			rel, err := r.Loc.TrimPrefix(path.New(r.Loc.DB()))
			if err != nil {
				continue
			}
			node, err := w.State.Get(rel)
			if err != nil {
				continue // since deleted in the witness
			}
			srcRel, err := r.Src.TrimPrefix(path.New(lost))
			if err != nil || srcRel.IsRoot() {
				continue
			}
			if err := place(res, conflict, srcRel, node, w.DB); err != nil {
				return nil, err
			}
		}
	}
	for p := range conflict {
		res.Conflicts = append(res.Conflicts, path.MustParse(p))
	}
	sortPaths(res.Conflicts)
	return res, nil
}

// place grafts a witnessed subtree at srcRel in the reconstruction,
// recording evidence and conflicts.
func place(res *Reconstructed, conflict map[string]bool, srcRel path.Path, node *tree.Node, witness string) error {
	// Ensure the ancestor chain exists.
	cur := res.Tree
	for _, label := range srcRel.MustParent().All() {
		next := cur.Child(label)
		if next == nil {
			next = tree.NewTree()
			if err := cur.AddChild(label, next); err != nil {
				return err
			}
		}
		cur = next
	}
	label := srcRel.Base()
	existing := cur.Child(label)
	switch {
	case existing == nil:
		if err := cur.SetChild(label, node.Clone()); err != nil {
			return err
		}
	case existing.Equal(node):
		// Independent confirmation.
	case subsumes(node, existing):
		// The new witness knows strictly more (it copied a larger
		// subtree); upgrade without conflict.
		if err := cur.SetChild(label, node.Clone()); err != nil {
			return err
		}
	case subsumes(existing, node):
		// Already know everything this witness contributes.
	default:
		// Genuine disagreement; keep the first value, flag the conflict.
		conflict[srcRel.String()] = true
	}
	key := srcRel.String()
	for _, w := range res.Evidence[key] {
		if w == witness {
			return nil
		}
	}
	res.Evidence[key] = append(res.Evidence[key], witness)
	return nil
}

// subsumes reports whether tree a contains everything in tree b with equal
// values (b is a partial view of a). Interior nodes of b must appear in a
// with at least b's children; leaves must match exactly.
func subsumes(a, b *tree.Node) bool {
	if b.IsLeaf() || a.IsLeaf() {
		return a.Equal(b)
	}
	for _, l := range b.Labels() {
		ac := a.Child(l)
		if ac == nil || !subsumes(ac, b.Child(l)) {
			return false
		}
	}
	return true
}
