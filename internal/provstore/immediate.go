package provstore

import (
	"context"
	"fmt"

	"repro/internal/update"
)

// immediateTracker implements the naïve (§2.1.1/§3.2.1) and hierarchical
// (§2.1.3/§3.2.3) methods: every operation writes its records to the backend
// as it happens, and every operation is its own transaction, exactly as in
// Figure 5(a) and (c).
//
// Naïve stores one record per touched node. Hierarchical stores at most one
// record per operation — the subtree root for deletes and copies — and, for
// inserts, first queries the backend to see whether the record is inferable
// from an ancestor record of the same transaction (children of inserted
// nodes are assumed inserted), in which case nothing is stored. That extra
// query is exactly why the paper measures hierarchical inserts as slower
// than naïve ones (§4.2).
type immediateTracker struct {
	method  Method
	backend Backend
	tids    *tidSource

	inTxn   bool
	lastTid int64
}

func (t *immediateTracker) Method() Method   { return t.method }
func (t *immediateTracker) Backend() Backend { return t.backend }
func (t *immediateTracker) Pending() int     { return 0 }

func (t *immediateTracker) Begin() error {
	if t.inTxn {
		return ErrOpenTxn
	}
	t.inTxn = true
	return nil
}

func (t *immediateTracker) Commit() (int64, error) {
	if !t.inTxn {
		return 0, ErrNoTxn
	}
	t.inTxn = false
	return t.lastTid, nil
}

// opTid allocates the transaction id for the next operation.
func (t *immediateTracker) opTid() (int64, error) {
	if !t.inTxn {
		return 0, ErrNoTxn
	}
	t.lastTid = t.tids.alloc()
	return t.lastTid, nil
}

func (t *immediateTracker) OnInsert(eff update.Effect) error {
	tid, err := t.opTid()
	if err != nil {
		return err
	}
	if len(eff.Inserted) != 1 {
		return fmt.Errorf("provstore: insert effect must create exactly one node, got %d", len(eff.Inserted))
	}
	loc := eff.Inserted[0]
	if t.method == Hierarchical {
		// One round trip to check whether the insert is inferable: if
		// the nearest ancestor record of this transaction is an insert,
		// this node is assumed inserted and needs no explicit record.
		anc, ok, err := NearestAncestor(context.Background(), t.backend, tid, loc)
		if err != nil {
			return err
		}
		if ok && anc.Op == OpInsert {
			return nil
		}
	}
	return t.backend.Append(context.Background(), []Record{{Tid: tid, Op: OpInsert, Loc: loc}})
}

func (t *immediateTracker) OnDelete(eff update.Effect) error {
	tid, err := t.opTid()
	if err != nil {
		return err
	}
	if len(eff.Deleted) == 0 {
		return fmt.Errorf("provstore: delete effect lists no nodes")
	}
	if t.method == Hierarchical {
		// Hierarchical: a single record at the subtree root; children of
		// deleted nodes are assumed deleted. Effect.Deleted is listed
		// pre-order, so element 0 is the root.
		return t.backend.Append(context.Background(), []Record{{Tid: tid, Op: OpDelete, Loc: eff.Deleted[0]}})
	}
	recs := make([]Record, 0, len(eff.Deleted))
	for _, loc := range eff.Deleted {
		recs = append(recs, Record{Tid: tid, Op: OpDelete, Loc: loc})
	}
	return t.backend.Append(context.Background(), recs)
}

func (t *immediateTracker) OnCopy(eff update.Effect) error {
	tid, err := t.opTid()
	if err != nil {
		return err
	}
	if len(eff.Copied) == 0 {
		return fmt.Errorf("provstore: copy effect lists no nodes")
	}
	if t.method == Hierarchical {
		// One record connecting the root of the pasted subtree to the
		// root of the source (§3.2.3).
		root := eff.Copied[0]
		return t.backend.Append(context.Background(), []Record{{Tid: tid, Op: OpCopy, Loc: root.Dst, Src: root.Src}})
	}
	recs := make([]Record, 0, len(eff.Copied))
	for _, pr := range eff.Copied {
		recs = append(recs, Record{Tid: tid, Op: OpCopy, Loc: pr.Dst, Src: pr.Src})
	}
	return t.backend.Append(context.Background(), recs)
}
