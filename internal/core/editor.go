// Package core implements CPDB's provenance-aware editor/browser — the
// paper's central component (Figure 2). The editor connects one writable
// target database and any number of read-only source databases through
// their wrappers, applies the user's insert/delete/copy-paste actions to
// the target, and records their provenance through a Tracker, so that "the
// target database and provenance record are writable only via high-level
// interfaces that track provenance" (§1.3).
//
// The editor keeps a browser mirror of the connected databases (the tree
// view a user would be looking at), from which it computes each operation's
// effect without extra round trips.
package core

import (
	"errors"
	"fmt"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/wrapper"
)

// Meter categories used by the editor, matching the bars of Figures 9/10:
// dataset interaction per basic operation type, source fetches, and
// provenance manipulation per operation type.
const (
	MeterDatasetAdd    = "dataset-add"    // target addNode round trip
	MeterDatasetDelete = "dataset-delete" // target deleteNode round trip
	MeterDatasetPaste  = "dataset-paste"  // target pasteNode round trip
	MeterSource        = "source"         // source copyNode round trip
	MeterAdd           = "prov-add"
	MeterDelete        = "prov-delete"
	MeterPaste         = "prov-paste"
	MeterCommit        = "prov-commit"
)

// DatasetCategories lists the target-interaction categories, whose combined
// average is the paper's "Dataset Update" bar.
var DatasetCategories = []string{MeterDatasetAdd, MeterDatasetDelete, MeterDatasetPaste}

// Errors returned by the editor.
var (
	ErrUnknownDB    = errors.New("core: unknown database")
	ErrNotTarget    = errors.New("core: operation must address the target database")
	ErrInconsistent = errors.New("core: provenance tracking failed and the dataset update was rolled back")
)

// Config configures an Editor.
type Config struct {
	// Target is the wrapped curated database being built. Required.
	Target wrapper.Target
	// Sources are the wrapped external databases data is copied from.
	Sources []wrapper.Source
	// Tracker records provenance. Required.
	Tracker provstore.Tracker
	// Meter, when set, attributes virtual time to per-operation
	// categories (see the Meter* constants); *netsim.Meter is one.
	Meter interface {
		Measure(category string, fn func() error) error
	}
	// AutoCommitEvery, when positive, commits the provenance transaction
	// after every N operations — the experiments commit every five
	// updates (Table 1).
	AutoCommitEvery int
}

// An Editor is one editing session against the target database.
type Editor struct {
	cfg     Config
	target  wrapper.Target
	sources map[string]wrapper.Source
	tracker provstore.Tracker

	mirror   *tree.Forest
	inTxn    bool
	opsInTxn int
	totalOps int
}

// NewEditor connects the target and sources, loading their tree views into
// the browser mirror (one round trip per database, like opening the
// browsing UI).
func NewEditor(cfg Config) (*Editor, error) {
	if cfg.Target == nil {
		return nil, errors.New("core: Config.Target is required")
	}
	if cfg.Tracker == nil {
		return nil, errors.New("core: Config.Tracker is required")
	}
	e := &Editor{
		cfg:     cfg,
		target:  cfg.Target,
		sources: make(map[string]wrapper.Source, len(cfg.Sources)),
		tracker: cfg.Tracker,
		mirror:  tree.NewForest(),
	}
	t, err := cfg.Target.Tree()
	if err != nil {
		return nil, fmt.Errorf("core: loading target view: %w", err)
	}
	if err := e.mirror.AddDB(cfg.Target.Name(), t); err != nil {
		return nil, err
	}
	for _, s := range cfg.Sources {
		if s.Name() == cfg.Target.Name() {
			return nil, fmt.Errorf("core: source %q shadows the target", s.Name())
		}
		st, err := s.Tree()
		if err != nil {
			return nil, fmt.Errorf("core: loading source %q view: %w", s.Name(), err)
		}
		if err := e.mirror.AddDB(s.Name(), st); err != nil {
			return nil, err
		}
		e.sources[s.Name()] = s
	}
	return e, nil
}

// Tracker returns the editor's provenance tracker.
func (e *Editor) Tracker() provstore.Tracker { return e.tracker }

// TargetName returns the target database's name.
func (e *Editor) TargetName() string { return e.target.Name() }

// TargetView returns a deep copy of the editor's view of the target.
func (e *Editor) TargetView() *tree.Node {
	return e.mirror.DB(e.target.Name()).Clone()
}

// TotalOps returns the number of operations applied in this session.
func (e *Editor) TotalOps() int { return e.totalOps }

// measure runs fn under the meter category when a meter is configured.
func (e *Editor) measure(cat string, fn func() error) error {
	if e.cfg.Meter == nil {
		return fn()
	}
	return e.cfg.Meter.Measure(cat, fn)
}

// Begin opens a provenance transaction. Operations auto-begin, so calling
// Begin explicitly is only needed to delimit intent.
func (e *Editor) Begin() error {
	if e.inTxn {
		return provstore.ErrOpenTxn
	}
	if err := e.tracker.Begin(); err != nil {
		return err
	}
	e.inTxn = true
	e.opsInTxn = 0
	return nil
}

// Commit commits the open provenance transaction, flushing deferred
// provenance in one round trip, and returns its transaction id.
func (e *Editor) Commit() (int64, error) {
	if !e.inTxn {
		return 0, provstore.ErrNoTxn
	}
	var tid int64
	err := e.measure(MeterCommit, func() error {
		var cerr error
		tid, cerr = e.tracker.Commit()
		return cerr
	})
	if err != nil {
		return 0, err
	}
	e.inTxn = false
	e.opsInTxn = 0
	return tid, nil
}

// ensureTxn auto-begins a transaction if none is open.
func (e *Editor) ensureTxn() error {
	if e.inTxn {
		return nil
	}
	return e.Begin()
}

// afterOp handles auto-commit bookkeeping.
func (e *Editor) afterOp() error {
	e.totalOps++
	e.opsInTxn++
	if e.cfg.AutoCommitEvery > 0 && e.opsInTxn >= e.cfg.AutoCommitEvery {
		_, err := e.Commit()
		return err
	}
	return nil
}

// requireTargetPath checks p addresses a node inside the target database.
func (e *Editor) requireTargetPath(p path.Path) error {
	if p.IsRoot() || p.DB() != e.target.Name() {
		return fmt.Errorf("%w: %q", ErrNotTarget, p)
	}
	return nil
}

// Insert performs `ins {label : value} into parent` on the target. value
// must be nil (the empty tree) or a leaf.
func (e *Editor) Insert(parent path.Path, label string, value *tree.Node) error {
	if parent.IsRoot() || parent.DB() != e.target.Name() {
		return fmt.Errorf("%w: insert into %q", ErrNotTarget, parent)
	}
	return e.applyOp(update.Insert{Into: parent, Label: label, Value: value})
}

// Delete performs `del <base(p)> from <parent(p)>` on the target.
func (e *Editor) Delete(p path.Path) error {
	if err := e.requireTargetPath(p); err != nil {
		return err
	}
	if p.Len() < 2 {
		return fmt.Errorf("%w: cannot delete database root %q", ErrNotTarget, p)
	}
	return e.applyOp(update.Delete{From: p.MustParent(), Label: p.Base()})
}

// CopyPaste performs `copy src into dst`: src may address any connected
// database (or the target itself); dst must address the target.
func (e *Editor) CopyPaste(src, dst path.Path) error {
	if err := e.requireTargetPath(dst); err != nil {
		return err
	}
	if src.IsRoot() {
		return fmt.Errorf("%w: %q", ErrUnknownDB, src)
	}
	if _, ok := e.sources[src.DB()]; !ok && src.DB() != e.target.Name() {
		return fmt.Errorf("%w: %q", ErrUnknownDB, src.DB())
	}
	return e.applyOp(update.Copy{Src: src, Dst: dst})
}

// Apply dispatches a parsed update operation through the editor.
func (e *Editor) Apply(op update.Op) error {
	switch op := op.(type) {
	case update.Insert:
		return e.Insert(op.Into, op.Label, op.Value)
	case update.Delete:
		return e.Delete(op.From.Child(op.Label))
	case update.Copy:
		return e.CopyPaste(op.Src, op.Dst)
	default:
		return fmt.Errorf("core: unknown operation type %T", op)
	}
}

// ApplySequence runs a whole update sequence (e.g. a parsed script),
// stopping at the first error and reporting the failing index.
func (e *Editor) ApplySequence(seq update.Sequence) (int, error) {
	for i, op := range seq {
		if err := e.Apply(op); err != nil {
			return i, fmt.Errorf("core: op %d (%s): %w", i+1, op, err)
		}
	}
	return len(seq), nil
}

// applyOp is the common path: compute effect against the mirror, apply the
// dataset update through the wrapper, update the mirror, then track
// provenance (with compensation if tracking fails).
func (e *Editor) applyOp(op update.Op) error {
	if err := e.ensureTxn(); err != nil {
		return err
	}
	eff, err := op.Effect(e.mirror)
	if err != nil {
		return err
	}
	undo := e.saveUndo(op)

	// 1. Dataset update through the target wrapper.
	if err := e.datasetUpdate(op, eff); err != nil {
		return err
	}

	// 2. Browser mirror follows.
	if err := op.Apply(e.mirror); err != nil {
		// The mirror was validated by Effect; failure here is a bug.
		panic(fmt.Sprintf("core: mirror diverged: %v", err))
	}

	// 3. Provenance tracking; on failure, compensate the dataset update
	// so target and provenance store never diverge (§1.3).
	if err := e.track(op, eff); err != nil {
		if cerr := e.compensate(op, undo); cerr != nil {
			return fmt.Errorf("%w: %v (compensation also failed: %v)", ErrInconsistent, err, cerr)
		}
		return fmt.Errorf("%w: %v", ErrInconsistent, err)
	}
	return e.afterOp()
}

// undoState captures the pre-operation content of the region an operation
// overwrites, so a failed provenance write can be compensated exactly.
type undoState struct {
	loc     path.Path  // affected location in the target
	subtree *tree.Node // pre-state subtree at loc; nil if loc did not exist
}

// saveUndo snapshots the affected region from the (pre-op) mirror.
func (e *Editor) saveUndo(op update.Op) undoState {
	var loc path.Path
	switch op := op.(type) {
	case update.Insert:
		loc = op.Into.Child(op.Label)
	case update.Delete:
		loc = op.From.Child(op.Label)
	case update.Copy:
		loc = op.Dst
	}
	if n, err := e.mirror.Get(loc); err == nil {
		return undoState{loc: loc, subtree: n.Clone()}
	}
	return undoState{loc: loc}
}

// datasetUpdate applies op to the target through its wrapper, charging the
// dataset meter. Copies fetch the subtree from the owning database first.
func (e *Editor) datasetUpdate(op update.Op, eff update.Effect) error {
	switch op := op.(type) {
	case update.Insert:
		return e.measure(MeterDatasetAdd, func() error {
			return e.target.AddNode(op.Into, op.Label, op.Value)
		})
	case update.Delete:
		return e.measure(MeterDatasetDelete, func() error {
			return e.target.DeleteNode(op.From.Child(op.Label))
		})
	case update.Copy:
		var sub *tree.Node
		var err error
		if op.Src.DB() == e.target.Name() {
			err = e.measure(MeterSource, func() error {
				var cerr error
				sub, cerr = e.target.CopyNode(op.Src)
				return cerr
			})
		} else {
			err = e.measure(MeterSource, func() error {
				var cerr error
				sub, cerr = e.sources[op.Src.DB()].CopyNode(op.Src)
				return cerr
			})
		}
		if err != nil {
			return err
		}
		return e.measure(MeterDatasetPaste, func() error {
			return e.target.PasteNode(op.Dst, sub)
		})
	default:
		return fmt.Errorf("core: unknown operation type %T", op)
	}
}

// track feeds the operation's effect to the tracker under the right meter
// category.
func (e *Editor) track(op update.Op, eff update.Effect) error {
	switch op.(type) {
	case update.Insert:
		return e.measure(MeterAdd, func() error { return e.tracker.OnInsert(eff) })
	case update.Delete:
		return e.measure(MeterDelete, func() error { return e.tracker.OnDelete(eff) })
	case update.Copy:
		return e.measure(MeterPaste, func() error { return e.tracker.OnCopy(eff) })
	default:
		return fmt.Errorf("core: unknown operation type %T", op)
	}
}

// compensate undoes a dataset update whose provenance tracking failed,
// restoring both the target and the mirror to the saved pre-op state.
func (e *Editor) compensate(op update.Op, undo undoState) error {
	// Restore the target database.
	if undo.subtree != nil {
		if err := e.target.PasteNode(undo.loc, undo.subtree); err != nil {
			return err
		}
	} else {
		if err := e.target.DeleteNode(undo.loc); err != nil {
			return err
		}
	}
	// Restore the mirror.
	parent, err := e.mirror.Get(undo.loc.MustParent())
	if err != nil {
		return err
	}
	if undo.subtree != nil {
		return parent.SetChild(undo.loc.Base(), undo.subtree.Clone())
	}
	return parent.RemoveChild(undo.loc.Base())
}
