package provstore

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/update"
)

// A Tracker records the provenance of update operations applied to the
// target database, according to one of the four storage methods. The editor
// drives it with the pre-computed Effect of each operation:
//
//	tr.Begin()
//	tr.OnInsert(eff) / tr.OnDelete(eff) / tr.OnCopy(eff)   (per op)
//	tr.Commit()
//
// Immediate methods (N, H) write through to the backend on every operation
// and treat each operation as its own transaction (§2.1.1, §2.1.3) — for
// them, Begin/Commit merely bracket the user's working session. Deferred
// methods (T, HT) buffer records in an active list ("provlist", §3.2.2) and
// flush them under a single transaction id at Commit.
type Tracker interface {
	// Method returns the storage method implemented by this tracker.
	Method() Method
	// Begin opens a user transaction.
	Begin() error
	// OnInsert records the effect of an insert operation.
	OnInsert(eff update.Effect) error
	// OnDelete records the effect of a delete operation.
	OnDelete(eff update.Effect) error
	// OnCopy records the effect of a copy-paste operation.
	OnCopy(eff update.Effect) error
	// Commit closes the current transaction, flushing any buffered
	// records. It returns the transaction id of the flushed transaction
	// (deferred methods) or of the last recorded operation (immediate
	// methods).
	Commit() (int64, error)
	// Pending returns the number of records currently buffered in the
	// active list (always 0 for immediate methods).
	Pending() int
	// Backend exposes the backend this tracker writes to.
	Backend() Backend
}

// Errors returned by trackers.
var (
	ErrNoTxn   = errors.New("provstore: no open transaction")
	ErrOpenTxn = errors.New("provstore: transaction already open")
)

// Config configures a Tracker.
type Config struct {
	// Backend is where records are persisted. Required.
	Backend Backend
	// StartTid is the first transaction id to allocate; it defaults to 1.
	// The Figure 5 golden fixtures use 121.
	StartTid int64
	// EliminateRedundant enables the optional redundant-link elimination
	// at HT commit discussed in §3.2.4 (e.g. copying S/a to T/a and then
	// S/a/b to T/a/b yields an inferable second link). The paper found
	// the check "not worthwhile"; it is off by default and measured by
	// the A4 ablation benchmark.
	EliminateRedundant bool
}

// New returns a tracker for the given method.
func New(m Method, cfg Config) (Tracker, error) {
	if cfg.Backend == nil {
		return nil, errors.New("provstore: Config.Backend is required")
	}
	tids := newTidSource(cfg.StartTid)
	switch m {
	case Naive, Hierarchical:
		return &immediateTracker{
			method:  m,
			backend: cfg.Backend,
			tids:    tids,
		}, nil
	case Transactional, HierTrans:
		return &deferredTracker{
			method:     m,
			backend:    cfg.Backend,
			tids:       tids,
			elimRedund: cfg.EliminateRedundant,
			list:       newProvlist(),
		}, nil
	default:
		return nil, fmt.Errorf("provstore: unknown method %v", m)
	}
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(m Method, cfg Config) Tracker {
	tr, err := New(m, cfg)
	if err != nil {
		panic(err)
	}
	return tr
}

// tidSource allocates monotonically increasing transaction identifiers.
type tidSource struct {
	next atomic.Int64
}

// newTidSource returns a source whose first id is startTid (or 1 when
// startTid is 0).
func newTidSource(startTid int64) *tidSource {
	if startTid == 0 {
		startTid = 1
	}
	s := &tidSource{}
	s.next.Store(startTid)
	return s
}

func (s *tidSource) alloc() int64 {
	return s.next.Add(1) - 1
}
