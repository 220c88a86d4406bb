package cpdb

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/provstore"
	"repro/internal/update"
)

// Config configures a curation Session.
type Config struct {
	// Target is the curated database being edited. Required.
	Target Target
	// Sources are the external databases data may be copied from.
	Sources []Source
	// Method selects the provenance storage strategy; the default is
	// HierTrans, the paper's best performer.
	Method Method
	// Backend persists provenance records; the default is an in-memory
	// store. Use OpenBackend with a DSN ("mem://?shards=8",
	// "rel://prov.db?create=1&durable=1") to pick a store by
	// configuration.
	Backend Backend
	// BatchSize groups provenance appends into batches of at least N
	// records flushed together as one group commit — one store round trip
	// (and, for a WAL-backed store, one log fsync) per batch
	// instead of per append. Queries read through the buffer, so results
	// never lag. The default (0 or 1) writes through, exactly today's
	// behavior.
	BatchSize int
	// StartTid numbers the first transaction (default 1).
	StartTid int64
	// AutoCommitEvery, when positive, commits after every N operations
	// (the experiments use 5).
	AutoCommitEvery int
	// EliminateRedundant enables §3.2.4's redundant-link elimination at
	// HT commit.
	EliminateRedundant bool
}

// A Session is one provenance-tracked editing session: the paper's
// provenance-aware editor plus its query interface.
type Session struct {
	editor  *core.Editor
	backend Backend
	method  Method
}

// New opens a session over the target and sources.
func New(cfg Config) (*Session, error) {
	if cfg.Target == nil {
		return nil, errors.New("cpdb: Config.Target is required")
	}
	backend := cfg.Backend
	if backend == nil {
		backend = provstore.NewMemBackend()
	}
	if cfg.BatchSize > 1 {
		backend = provstore.NewBatching(backend, cfg.BatchSize)
	}
	tracker, err := provstore.New(cfg.Method, provstore.Config{
		Backend:            backend,
		StartTid:           cfg.StartTid,
		EliminateRedundant: cfg.EliminateRedundant,
	})
	if err != nil {
		return nil, err
	}
	ed, err := core.NewEditor(core.Config{
		Target:          cfg.Target,
		Sources:         cfg.Sources,
		Tracker:         tracker,
		AutoCommitEvery: cfg.AutoCommitEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Session{
		editor:  ed,
		backend: backend,
		method:  cfg.Method,
	}, nil
}

// Method returns the session's storage method.
func (s *Session) Method() Method { return s.method }

// TargetName returns the target database's name.
func (s *Session) TargetName() string { return s.editor.TargetName() }

// BackendStore exposes the provenance backend (for federation and size
// accounting).
func (s *Session) BackendStore() Backend { return s.backend }

// View returns a deep copy of the editor's current view of the target.
func (s *Session) View() *Node { return s.editor.TargetView() }

// --- editing ---------------------------------------------------------------

// Flush pushes any provenance appends buffered by Config.BatchSize down to
// the store as one group commit. Queries flush implicitly; call Flush to
// bound the un-persisted tail explicitly (e.g. before process exit). It is
// a no-op for write-through configurations.
func (s *Session) Flush() error { return provstore.Flush(context.Background(), s.backend) }

// Begin opens a provenance transaction explicitly (operations auto-begin).
func (s *Session) Begin() error { return s.editor.Begin() }

// Commit commits the open provenance transaction and returns its id.
func (s *Session) Commit() (int64, error) { return s.editor.Commit() }

// Insert performs `ins {label : value} into parent`; value nil means the
// empty tree.
func (s *Session) Insert(parent Path, label string, value *Node) error {
	return s.editor.Insert(parent, label, value)
}

// Delete removes the node at p and its subtree.
func (s *Session) Delete(p Path) error { return s.editor.Delete(p) }

// CopyPaste copies the subtree at src (in any connected database) over dst
// in the target.
func (s *Session) CopyPaste(src, dst Path) error { return s.editor.CopyPaste(src, dst) }

// Run parses and applies an update script in the paper's Figure 3 syntax.
func (s *Session) Run(script string) error {
	seq, err := update.ParseScript(script)
	if err != nil {
		return err
	}
	_, err = s.editor.ApplySequence(seq)
	return err
}

// Apply applies one parsed update operation.
func (s *Session) Apply(op update.Op) error { return s.editor.Apply(op) }

// TotalOps reports the number of operations applied in this session.
func (s *Session) TotalOps() int { return s.editor.TotalOps() }

// Close flushes any provenance appends still buffered by Config.BatchSize
// and releases the backend's external resources (the database and
// write-ahead-log files of a durable relational store, for every shard of a
// sharded store). The session must not be used afterwards. Sessions over
// purely in-memory backends may skip Close; calling it is still harmless.
func (s *Session) Close() error {
	return provstore.Close(s.backend)
}

// --- provenance queries ------------------------------------------------------
//
// The methods below are the zero-configuration form of the Query handle:
// s.Trace(p) ≡ s.Query().Trace(p), and likewise for Src, Hist, Mod and
// Records. Use Query directly for time travel (AsOf), cancellation
// (WithContext) or record streaming (Query.Records).

// Trace returns the backward history of the data currently at p.
func (s *Session) Trace(p Path) (TraceResult, error) {
	return s.Query().Trace(p)
}

// Src answers which transaction first created the data now at p; ok is
// false when the data pre-exists tracking or came from an external source.
func (s *Session) Src(p Path) (tid int64, ok bool, err error) {
	return s.Query().Src(p)
}

// Hist returns every transaction that copied the data now at p, most
// recent first.
func (s *Session) Hist(p Path) ([]int64, error) {
	return s.Query().Hist(p)
}

// Mod returns every transaction that created, modified or deleted data in
// the subtree at p.
func (s *Session) Mod(p Path) ([]int64, error) {
	return s.Query().Mod(p)
}

// Plan parses and runs one declarative provenance query against the
// session's store — s.Plan(text) ≡ s.Query().Plan(text); see Query.Plan
// for the grammar and the one-round-trip execution on remote stores.
func (s *Session) Plan(text string) (*PlanResult, error) {
	return s.Query().Plan(text)
}

// Records returns every stored provenance record ordered by (Tid, Loc) —
// the session's Figure 5 table, materialized. On large stores prefer the
// streaming Query.Records, which this method drains.
func (s *Session) Records() ([]Record, error) {
	var out []Record
	for rec, err := range s.Query().Records(context.Background()) {
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// RecordCount returns the number of stored provenance records.
func (s *Session) RecordCount() (int, error) {
	st, err := s.backend.Stat(context.Background())
	return st.Count, err
}

// RecordBytes returns the physical size of the stored provenance records.
func (s *Session) RecordBytes() (int64, error) {
	st, err := s.backend.Stat(context.Background())
	return st.Bytes, err
}
