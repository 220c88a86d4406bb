// Package provtest provides shared test scaffolding for driving provenance
// trackers with update sequences and recording version snapshots. It is the
// reference driver the real editor (internal/core) is cross-checked against,
// and is also used by query and benchmark tests.
//
// It also hosts the cross-backend cursor conformance suite (Conformance,
// conformance.go): one table of contract subtests — scan ordering, seek
// equivalence, early-break resource release, mid-stream and pre-issued
// cancellation — that every Backend implementation runs against its own
// constructor.
package provtest

import (
	"context"
	"fmt"

	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/update"
)

// A Version is a snapshot of the forest at a transaction boundary.
type Version struct {
	// Tid is the transaction that produced this version (0 for the
	// initial version).
	Tid int64
	// Forest is a deep copy of the forest state.
	Forest *tree.Forest
}

// Run applies the update sequence to the forest, feeding each operation's
// effect to the tracker, committing every commitEvery operations (and once
// at the end if operations remain). commitEvery <= 0 means a single
// transaction for the whole sequence.
//
// It returns one Version per transaction boundary, starting with the initial
// state (Tid 0). For immediate trackers (N, H) the returned versions span
// the Begin/Commit windows of the driver, not the per-operation transactions
// the trackers allocate internally; use RunPerOp to snapshot around every
// operation.
func Run(tr provstore.Tracker, f *tree.Forest, seq update.Sequence, commitEvery int) ([]Version, error) {
	versions := []Version{{Tid: 0, Forest: f.Clone()}}
	opened := false
	for i, op := range seq {
		if !opened {
			if err := tr.Begin(); err != nil {
				return nil, err
			}
			opened = true
		}
		if err := applyOne(tr, f, op); err != nil {
			return nil, fmt.Errorf("provtest: op %d (%s): %w", i+1, op, err)
		}
		if commitEvery > 0 && (i+1)%commitEvery == 0 {
			tid, err := tr.Commit()
			if err != nil {
				return nil, err
			}
			opened = false
			versions = append(versions, Version{Tid: tid, Forest: f.Clone()})
		}
	}
	if opened {
		tid, err := tr.Commit()
		if err != nil {
			return nil, err
		}
		versions = append(versions, Version{Tid: tid, Forest: f.Clone()})
	}
	return versions, nil
}

// RunPerOp applies the sequence with one Begin/Commit per operation and
// snapshots the forest around every operation, so versions[i] and
// versions[i+1] bracket operation i. This matches the per-operation
// transactions of the immediate methods (Figure 5(a) and (c)).
func RunPerOp(tr provstore.Tracker, f *tree.Forest, seq update.Sequence) ([]Version, error) {
	versions := []Version{{Tid: 0, Forest: f.Clone()}}
	for i, op := range seq {
		if err := tr.Begin(); err != nil {
			return nil, err
		}
		if err := applyOne(tr, f, op); err != nil {
			return nil, fmt.Errorf("provtest: op %d (%s): %w", i+1, op, err)
		}
		tid, err := tr.Commit()
		if err != nil {
			return nil, err
		}
		versions = append(versions, Version{Tid: tid, Forest: f.Clone()})
	}
	return versions, nil
}

// applyOne computes the operation's effect, applies it to the forest, and
// feeds the effect to the tracker — the same order the editor uses.
func applyOne(tr provstore.Tracker, f *tree.Forest, op update.Op) error {
	eff, err := op.Effect(f)
	if err != nil {
		return err
	}
	if err := op.Apply(f); err != nil {
		return err
	}
	switch op.(type) {
	case update.Insert:
		return tr.OnInsert(eff)
	case update.Delete:
		return tr.OnDelete(eff)
	case update.Copy:
		return tr.OnCopy(eff)
	default:
		return fmt.Errorf("provtest: unknown op type %T", op)
	}
}

// AllSorted returns every record in the backend ordered by (Tid, Loc), the
// display order of the paper's Figure 5 — a drain of the All() cursor.
func AllSorted(b provstore.Backend) ([]provstore.Record, error) {
	return provstore.CollectScan(b.Scan(context.Background(), provstore.All()))
}
