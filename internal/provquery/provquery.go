// Package provquery implements the provenance queries of §2.2 and §3.3:
//
//	Src(p)  — which transaction first created the data now at p
//	Hist(p) — every transaction that copied the data now at p
//	Mod(p)  — every transaction that created or modified the subtree at p
//	Trace   — the underlying backward chain through the From relation
//	Own     — the cross-database ownership history (with a Federation)
//
// Queries work over any provstore.Backend and any of the four storage
// methods: hierarchical inference is resolved on the fly, as in the paper's
// implementation ("we query the provenance store directly and compute the
// appropriate provenance links on-the-fly").
//
// Since the declarative query layer landed, the Engine methods compile to
// provplan plans: each query ships whole to wherever plans execute — the
// local planner, or one POST /v1/query round trip when the backend is a
// cpdb:// client. The pre-planner client-orchestrated implementations
// survive as test code beside provplan's equivalence property test, which
// holds the two answer-identical on every backend.
package provquery

import (
	"context"

	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// ErrBadTrace reports an inconsistent provenance store (a trace reached a
// location a transaction deleted).
var ErrBadTrace = provplan.ErrBadTrace

// The trace result model lives in provplan (the layer that computes it,
// on either side of a network connection); provquery re-exports it.
type (
	// An Event is one step of a data item's history, in reverse
	// chronological order.
	Event = provplan.Event
	// A TraceResult is the full backward history of one location.
	TraceResult = provplan.TraceResult
	// Origin classifies how a trace ended.
	Origin = provplan.Origin
)

// Trace chain endings.
const (
	OriginInserted    = provplan.OriginInserted
	OriginExternal    = provplan.OriginExternal
	OriginPreexisting = provplan.OriginPreexisting
)

// An Engine answers provenance queries against one provenance store.
type Engine struct {
	backend provstore.Backend
}

// New returns an engine over the backend.
func New(b provstore.Backend) *Engine { return &Engine{backend: b} }

// Backend returns the engine's backend.
func (e *Engine) Backend() provstore.Backend { return e.backend }

// run executes one ancestry query kind through the plan layer (delegated
// to the backend when it executes plans itself).
func (e *Engine) run(ctx context.Context, kind string, p path.Path, tnow int64) (*provplan.Result, error) {
	return provplan.Collect(ctx, e.backend, &provplan.Query{Op: kind, Path: p.String(), AsOf: tnow})
}

// Trace computes the backward history of the data at location p as of the
// end of transaction tnow (pass the store's MaxTid for "now"). The context
// is observed between chain steps, so a trace over a slow or remote store
// can be cancelled.
func (e *Engine) Trace(ctx context.Context, p path.Path, tnow int64) (TraceResult, error) {
	if tnow <= 0 {
		return TraceResult{Origin: OriginPreexisting}, nil
	}
	res, err := e.run(ctx, provplan.OpTrace, p, tnow)
	if err != nil {
		return TraceResult{}, err
	}
	return res.Trace, nil
}

// Src answers: which transaction first created (inserted) the data now at
// p? ok is false when the origin is external or pre-existing — the partial
// answers the paper discusses.
func (e *Engine) Src(ctx context.Context, p path.Path, tnow int64) (int64, bool, error) {
	if tnow <= 0 {
		return 0, false, nil
	}
	res, err := e.run(ctx, provplan.OpSrc, p, tnow)
	if err != nil {
		return 0, false, err
	}
	if !res.Found {
		return 0, false, nil
	}
	return res.Value, true, nil
}

// Hist answers: the sequence of all transactions that copied the data now
// at p to its current position, most recent first.
func (e *Engine) Hist(ctx context.Context, p path.Path, tnow int64) ([]int64, error) {
	if tnow <= 0 {
		return nil, nil
	}
	res, err := e.run(ctx, provplan.OpHist, p, tnow)
	if err != nil {
		return nil, err
	}
	return res.Tids, nil
}

// Mod answers: every transaction that created, modified or deleted data in
// the subtree under p (inclusive), as of transaction tnow. Per §2.2, the
// answer is computed from the provenance store alone, without inspecting
// the target database, and is finite even though infinitely many paths
// extend p.
func (e *Engine) Mod(ctx context.Context, p path.Path, tnow int64) ([]int64, error) {
	if tnow <= 0 {
		return []int64{}, nil
	}
	res, err := e.run(ctx, provplan.OpMod, p, tnow)
	if err != nil {
		return nil, err
	}
	if res.Tids == nil {
		return []int64{}, nil
	}
	return res.Tids, nil
}

// MaxTid returns the newest transaction id in the store (the paper's tnow).
func (e *Engine) MaxTid(ctx context.Context) (int64, error) {
	st, err := e.backend.Stat(ctx)
	return st.MaxTid, err
}
