package provauth

import (
	"context"
	"fmt"
	"io"
	"iter"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/path"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// Authority is the proof-serving surface an authenticated store exposes on
// top of provstore.Backend. *AuthBackend implements it locally; the
// provhttp.Client implements it over /v1/root, /v1/prove, /v1/consistency
// and proven /v1/scan streams, so a daemon chained onto another daemon
// still serves proofs.
type Authority interface {
	// Root returns the current sealed tree head.
	Root(ctx context.Context) (Root, error)
	// ProveAt proves the record keyed {tid, loc} against the historical
	// head at atSize leaves — what stamps every record of one stream
	// against the single root in its header.
	ProveAt(ctx context.Context, tid int64, loc path.Path, atSize uint64) (Proof, error)
	// Consistency returns the audit hashes proving the head at oldSize
	// leaves is a prefix of the head at newSize leaves.
	Consistency(ctx context.Context, oldSize, newSize uint64) ([]Hash, error)
	// ScanProven streams the records spec selects, each carrying an
	// inclusion proof against one root snapshotted when the stream starts.
	// The stream answers as of that root (AsOf): records sealed later are
	// not yielded (re-scan to pick them up), a record the scan selects that
	// the root does not cover is an in-stream ErrUnsealed, and a record the
	// store returns that the log never admitted is an in-stream
	// ErrNotInLog. One record's proof is the first record of a point scan,
	// ByLoc(loc).After(tid-1, loc).Until(tid).
	ScanProven(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[ProvenRecord, error]
}

// AsOf bounds a proven scan at its root: a scan with no bound, or one bounded
// past the root, is bounded at the root's transaction, so no record sealed
// later is even read. A scan whose Floor also lies past the root — a point
// read of the open transaction — has nothing at or below the root to answer,
// so it keeps its bound, and a record it selects fails the scan
// (ErrUnsealed) rather than be claimed absent.
func AsOf(spec provstore.ScanSpec, root Root) provstore.ScanSpec {
	if until, bounded := spec.Bound(); !bounded || until > root.Tid && spec.Floor() <= root.Tid {
		return spec.Until(root.Tid)
	}
	return spec
}

// An AuthBackend wraps any provstore.Backend with the Merkle history tree:
// reads and scans delegate untouched, writes feed the tree, and the
// Authority surface serves roots and proofs. Open one directly with New or
// by DSN via verified://?inner=DSN.
//
// Sealing: records of the highest (open) transaction buffer until a
// higher-tid append arrives or Flush/Close runs; sealing appends them to
// the tree in Loc order and publishes the new root. The
// leaf sequence is therefore exactly the store's (Tid, Loc) scan order,
// which is what lets New rebuild the tree from an existing store. The
// price of an ordered log: appending at or below the last sealed
// transaction fails with ErrSealed, and appends serialize through the
// tree's lock (the bench's -exp auth sweep measures the overhead).
type AuthBackend struct {
	inner provstore.Backend

	mu      sync.RWMutex // guards everything below; held across inner writes
	tree    merkle
	leaf    map[recordKey]uint64 // leaf index of each record
	root    Root                 // the head as of the last sealed transaction
	open    []provstore.Record
	openTid int64 // 0 when no transaction is open

	obs            *provobs.Registry
	proofsServed   *provobs.Counter // auth.proofs_served
	verifyFailures *provobs.Counter // auth.verify_failures
	proveDur       *provobs.Histogram
}

var (
	_ provstore.Backend = (*AuthBackend)(nil)
	_ provstore.Flusher = (*AuthBackend)(nil)
	_ provobs.Source    = (*AuthBackend)(nil)
	_ io.Closer         = (*AuthBackend)(nil)
	_ Authority         = (*AuthBackend)(nil)
)

// New wraps inner with a history tree, rebuilding it from the store's
// All() scan — reopening verified:// over a populated rel:// file
// recomputes the same root the original process published. Everything
// already in the store is sealed.
func New(inner provstore.Backend) (*AuthBackend, error) {
	a := &AuthBackend{inner: inner, leaf: make(map[recordKey]uint64), root: Root{Hash: emptyRoot()}, obs: provobs.NewRegistry()}
	a.register()
	for rec, err := range inner.Scan(context.Background(), provstore.All()) {
		if err != nil {
			return nil, fmt.Errorf("provauth: rebuilding tree from store: %w", err)
		}
		if a.openTid != 0 && rec.Tid != a.openTid {
			a.seal()
		}
		if a.openTid == 0 {
			a.openTid = rec.Tid
		}
		a.open = append(a.open, rec)
	}
	if a.openTid != 0 {
		a.seal()
	}
	return a, nil
}

// Inner returns the wrapped store (unwrap chains and size accounting).
func (a *AuthBackend) Inner() provstore.Backend { return a.inner }

// --- writes ------------------------------------------------------------------

// Append implements Backend: the batch is admitted against the seal
// ordering first (so a rejected batch never reaches the store), written to
// the inner backend, then ingested into the tree — all under one lock, so
// the tree's leaf order is the store's commit order.
func (a *AuthBackend) Append(ctx context.Context, recs []provstore.Record) error {
	_, sp := provtrace.Start(ctx, "auth:ingest")
	if sp != nil {
		sp.SetAttr("records", strconv.Itoa(len(recs)))
		defer sp.End()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admit(recs); err != nil {
		sp.SetErr(err)
		return err
	}
	if err := a.inner.Append(ctx, recs); err != nil {
		sp.SetErr(err)
		return err
	}
	a.ingest(recs)
	return nil
}

// admit rejects (under the lock, before any store write) records that
// would land at or below a sealed transaction, or behind the open one —
// the authenticated log cannot insert into the past.
func (a *AuthBackend) admit(recs []provstore.Record) error {
	sealed := a.root.Tid
	for i := range recs {
		t := recs[i].Tid
		if t <= sealed {
			return fmt.Errorf("provauth: append into transaction %d at or below sealed transaction %d: %w", t, sealed, ErrSealed)
		}
		if a.openTid != 0 && t < a.openTid {
			return fmt.Errorf("provauth: append into transaction %d behind open transaction %d: %w", t, a.openTid, ErrSealed)
		}
	}
	return nil
}

// ingest buffers the batch into the open transaction, sealing every
// transaction a higher tid closes over. Caller holds the write lock and
// has already admitted the batch.
func (a *AuthBackend) ingest(recs []provstore.Record) {
	if len(recs) == 0 {
		return
	}
	tids := make([]int64, 0, 2)
	for i := range recs {
		if !slices.Contains(tids, recs[i].Tid) {
			tids = append(tids, recs[i].Tid)
		}
	}
	slices.Sort(tids)
	for _, t := range tids {
		if a.openTid != 0 && t > a.openTid {
			a.seal()
		}
		if a.openTid == 0 {
			a.openTid = t
		}
		for i := range recs {
			if recs[i].Tid == t {
				a.open = append(a.open, recs[i])
			}
		}
	}
}

// seal closes the open transaction: its records enter the tree in Loc
// order (matching the All() scan) and the new root is published. Caller
// holds the write lock; openTid != 0.
func (a *AuthBackend) seal() {
	slices.SortFunc(a.open, func(x, y provstore.Record) int { return x.Loc.Compare(y.Loc) })
	for i := range a.open {
		a.leaf[recordKey{a.open[i].Tid, a.open[i].Loc}] = a.tree.size()
		a.tree.appendLeaf(recordLeafHash(a.open[i]))
	}
	a.root = Root{Size: a.tree.size(), Tid: a.openTid, Hash: a.tree.rootAt(a.tree.size())}
	a.open = nil
	a.openTid = 0
}

// --- lifecycle ---------------------------------------------------------------

// Flush implements Flusher: the open transaction seals (its records become
// provable), then the inner store's buffers push down. A session's
// Close/Flush is what publishes the root of its final transaction.
func (a *AuthBackend) Flush(ctx context.Context) error {
	a.mu.Lock()
	if a.openTid != 0 {
		a.seal()
	}
	a.mu.Unlock()
	return provstore.Flush(ctx, a.inner)
}

// Close implements io.Closer: seal, then flush and close the inner store.
func (a *AuthBackend) Close() error {
	a.mu.Lock()
	if a.openTid != 0 {
		a.seal()
	}
	a.mu.Unlock()
	return provstore.Close(a.inner)
}

// register names this layer's series, surfaced through /v1/stats, /metrics
// and the cpdbd shutdown dump:
//
//	auth.root_tid         last sealed transaction id
//	auth.root_size        leaves under the published root
//	auth.proofs_served    inclusion + consistency proofs generated
//	auth.verify_failures  fail-closed events this layer raised (a record
//	                      served by the store that the log never admitted)
func (a *AuthBackend) register() {
	root := func() Root {
		a.mu.RLock()
		defer a.mu.RUnlock()
		return a.root
	}
	a.obs.GaugeFunc("cpdb_auth_root_tid", "Last sealed transaction id.",
		func() int64 { return root().Tid }, provobs.WithStatKey("auth.root_tid"))
	a.obs.GaugeFunc("cpdb_auth_root_size", "Leaves under the published root.",
		func() int64 { return int64(root().Size) }, provobs.WithStatKey("auth.root_size"))
	a.proofsServed = a.obs.Counter("cpdb_auth_proofs_served_total",
		"Inclusion and consistency proofs generated.", provobs.WithStatKey("auth.proofs_served"))
	a.verifyFailures = a.obs.Counter("cpdb_auth_verify_failures_total",
		"Records served by the store that the log never admitted (fail-closed events).",
		provobs.WithStatKey("auth.verify_failures"))
	a.proveDur = a.obs.Histogram("cpdb_auth_prove_duration_seconds",
		"Time to build one inclusion proof (lock wait included).", provobs.UnitSeconds)
}

// ObsRegistries implements provobs.Source: this layer's registry.
func (a *AuthBackend) ObsRegistries() []*provobs.Registry { return []*provobs.Registry{a.obs} }

// --- the Authority surface -----------------------------------------------------

// Root implements Authority.
func (a *AuthBackend) Root(ctx context.Context) (Root, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.root, nil
}

// ProveAt implements Authority.
func (a *AuthBackend) ProveAt(ctx context.Context, tid int64, loc path.Path, atSize uint64) (Proof, error) {
	start := time.Now()
	a.mu.RLock()
	defer a.mu.RUnlock()
	if atSize > a.tree.size() {
		return Proof{}, fmt.Errorf("provauth: no root at %d leaves (tree holds %d)", atSize, a.tree.size())
	}
	defer func() { a.proveDur.Observe(time.Since(start).Nanoseconds()) }()
	idx, ok := a.leaf[recordKey{tid, loc}]
	if !ok {
		if tid == a.openTid {
			return Proof{}, fmt.Errorf("provauth: record {%d, %s} is in the open transaction: %w", tid, loc, ErrUnsealed)
		}
		a.verifyFailures.Add(1)
		return Proof{}, fmt.Errorf("provauth: record {%d, %s}: %w", tid, loc, ErrNotInLog)
	}
	if idx >= atSize {
		return Proof{}, fmt.Errorf("provauth: record {%d, %s} sealed after the root at %d leaves: %w", tid, loc, atSize, ErrUnsealed)
	}
	a.proofsServed.Add(1)
	return Proof{LeafIndex: idx, TreeSize: atSize, Audit: a.tree.inclusion(idx, atSize)}, nil
}

// Consistency implements Authority.
func (a *AuthBackend) Consistency(ctx context.Context, oldSize, newSize uint64) ([]Hash, error) {
	_, sp := provtrace.Start(ctx, "auth:consistency")
	defer sp.End()
	a.mu.RLock()
	defer a.mu.RUnlock()
	if oldSize > newSize {
		return nil, fmt.Errorf("provauth: consistency from %d to smaller %d", oldSize, newSize)
	}
	if newSize > a.tree.size() {
		return nil, fmt.Errorf("provauth: no root at %d leaves (tree holds %d)", newSize, a.tree.size())
	}
	a.proofsServed.Add(1)
	return a.tree.consistency(oldSize, newSize), nil
}

// ScanProven implements Authority: the inner store's seeked cursor over the
// scan as of the root snapshotted when the cursor started (AsOf), each
// record stamped with its proof against that root; a record the log never
// admitted is an in-stream ErrNotInLog — the consumer must treat the stream
// as compromised.
func (a *AuthBackend) ScanProven(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[ProvenRecord, error] {
	return func(yield func(ProvenRecord, error) bool) {
		// One span covers the whole proof-stamped stream (per-record spans
		// would dwarf the trace); "proofs" counts the stamps built.
		_, sp := provtrace.Start(ctx, "auth:prove-stream")
		proofs := 0
		if sp != nil {
			defer func() {
				sp.SetAttr("proofs", strconv.Itoa(proofs))
				sp.End()
			}()
		}
		a.mu.RLock()
		root := a.root
		a.mu.RUnlock()
		for rec, err := range a.inner.Scan(ctx, AsOf(spec, root)) {
			if err != nil {
				sp.SetErr(err)
				yield(ProvenRecord{}, err)
				return
			}
			proof, err := a.ProveAt(ctx, rec.Tid, rec.Loc, root.Size)
			if err != nil {
				sp.SetErr(err)
				yield(ProvenRecord{}, err)
				return
			}
			proofs++
			if !yield(ProvenRecord{Rec: rec, Proof: proof, Root: root}, nil) {
				return
			}
		}
	}
}

// --- delegated reads -----------------------------------------------------------

// Scan implements Backend.
func (a *AuthBackend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	return a.inner.Scan(ctx, spec)
}

// Stat implements Backend.
func (a *AuthBackend) Stat(ctx context.Context) (provstore.Stat, error) { return a.inner.Stat(ctx) }
