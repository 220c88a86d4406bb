package provstore

import (
	"context"
	"fmt"

	"repro/internal/path"
	"repro/internal/update"
)

// deferredTracker implements the transactional (§2.1.2/§3.2.2) and
// hierarchical-transactional (§2.1.4/§3.2.4) methods. Operations never touch
// the backend; they maintain the in-memory active list, which is flushed in
// a single batch (one round trip) at Commit. This is why the paper measures
// transactional inserts and copies as running "essentially instantaneously"
// while commits cost about one database interaction.
//
// Only links describing the net change of the transaction survive: data
// inserted or copied and later deleted or overwritten within the same
// transaction leaves no trace, exactly as in the paper's example of copying
// from S1, reconsidering, and using S2 instead.
type deferredTracker struct {
	method     Method
	backend    Backend
	tids       *tidSource
	elimRedund bool
	list       *provlist
	inTxn      bool
}

func (t *deferredTracker) Method() Method   { return t.method }
func (t *deferredTracker) Backend() Backend { return t.backend }
func (t *deferredTracker) Pending() int     { return t.list.len() }

func (t *deferredTracker) Begin() error {
	if t.inTxn {
		return ErrOpenTxn
	}
	t.inTxn = true
	return nil
}

func (t *deferredTracker) Commit() (int64, error) {
	if !t.inTxn {
		return 0, ErrNoTxn
	}
	t.inTxn = false
	if t.method == HierTrans && t.elimRedund {
		t.list.eliminateRedundant()
	}
	tid := t.tids.alloc()
	recs := t.list.flush(tid)
	if len(recs) == 0 {
		return tid, nil
	}
	if err := t.backend.Append(context.Background(), recs); err != nil {
		return 0, err
	}
	return tid, nil
}

func (t *deferredTracker) OnInsert(eff update.Effect) error {
	if !t.inTxn {
		return ErrNoTxn
	}
	if len(eff.Inserted) != 1 {
		return fmt.Errorf("provstore: insert effect must create exactly one node, got %d", len(eff.Inserted))
	}
	loc := eff.Inserted[0]
	// An insert may land on a location whose pre-existing data this
	// transaction deleted earlier; the new entry then shadows that net
	// deletion so it can be restored if the data is deleted again.
	var shadow []path.Path
	if old := t.list.at(loc); old != nil {
		if old.op == OpDelete {
			shadow = []path.Path{loc}
		} else {
			shadow = old.shadow
		}
	}
	if t.method == HierTrans && shadow == nil {
		// Inferable from an ancestor created in this same transaction:
		// children of inserted nodes are assumed inserted.
		if anc := t.list.nearestStrictAncestor(loc); anc != nil && anc.op == OpInsert {
			return nil
		}
	}
	t.list.set(&listEntry{loc: loc, op: OpInsert, shadow: shadow})
	return nil
}

func (t *deferredTracker) OnDelete(eff update.Effect) error {
	if !t.inTxn {
		return ErrNoTxn
	}
	if len(eff.Deleted) == 0 {
		return fmt.Errorf("provstore: delete effect lists no nodes")
	}
	root := eff.Deleted[0]
	createdRegion := t.list.createdAt(root)

	// Remove buffered insert/copy links for the deleted data. Buffered
	// delete links deeper in the region stay: they record net deletions
	// of pre-existing data, which remain true.
	removed := t.list.removeCreatedRegion(root)

	if t.method == HierTrans {
		// Restore net deletions shadowed by removed created entries: the
		// shadow of an entry is the transaction-start subtree its region
		// replaced, so a single hierarchical delete link at the entry's
		// own location covers it.
		for _, e := range removed {
			if len(e.shadow) > 0 {
				t.list.setDelete(e.loc)
			}
		}
		if !createdRegion {
			// The root held pre-existing data: one hierarchical delete
			// link at the root covers the whole subtree.
			t.list.setDelete(root)
		}
		return nil
	}

	// Transactional (non-hierarchical): restore every shadowed net
	// deletion explicitly, then add one delete link per deleted node that
	// pre-existed the transaction (i.e. was not created by it).
	removedCreated := make(map[path.Path]*listEntry, len(removed))
	for _, e := range removed {
		removedCreated[e.loc] = e
		for _, sl := range e.shadow {
			t.list.setDelete(sl)
		}
	}
	for _, loc := range eff.Deleted {
		if _, created := removedCreated[loc]; created {
			continue
		}
		t.list.setDelete(loc)
	}
	return nil
}

func (t *deferredTracker) OnCopy(eff update.Effect) error {
	if !t.inTxn {
		return ErrNoTxn
	}
	if len(eff.Copied) == 0 {
		return fmt.Errorf("provstore: copy effect lists no nodes")
	}
	dst := eff.Copied[0].Dst

	// Collect the net deletions this copy hides: pre-existing nodes it
	// overwrites now, plus net deletions recorded or shadowed by the
	// buffered entries it supersedes. Figure 5(b) stores no D link for an
	// overwrite — the copy link supersedes it — but the information must
	// survive within the open transaction in case the copied data is
	// itself deleted before commit.
	shadowSet := make(map[path.Path]struct{})
	if eff.Overwritten {
		for _, loc := range eff.Deleted {
			if !t.list.createdAt(loc) {
				shadowSet[loc] = struct{}{}
			}
		}
	}
	for _, e := range t.list.removeRegion(dst) {
		if e.op == OpDelete {
			shadowSet[e.loc] = struct{}{}
		}
		for _, sl := range e.shadow {
			shadowSet[sl] = struct{}{}
		}
	}
	var shadow []path.Path
	for p := range shadowSet {
		shadow = append(shadow, p)
	}

	if t.method == HierTrans {
		root := eff.Copied[0]
		t.list.set(&listEntry{loc: root.Dst, op: OpCopy, src: root.Src, shadow: shadow})
		return nil
	}
	for i, pr := range eff.Copied {
		e := &listEntry{loc: pr.Dst, op: OpCopy, src: pr.Src}
		if i == 0 {
			e.shadow = shadow
		}
		t.list.set(e)
	}
	return nil
}
