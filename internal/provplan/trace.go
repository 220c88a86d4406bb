package provplan

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/path"
	"repro/internal/provstore"
)

// This file executes the paper's ancestry queries as plans: Trace is a
// chain of one select per step (loc <= cur, tid <= tnow, the hierarchical
// resolution access path), Mod is a BFS whose every wave is a batch of
// region selects run one after another, and Hist and Src derive from Trace.
// The result types live here because the engine that computes a TraceResult
// is the plan layer, whichever side of a network connection it runs on.

// ErrBadTrace reports an inconsistent provenance store (a trace reached a
// location a transaction deleted).
var ErrBadTrace = errors.New("provplan: trace reached deleted data; provenance store is inconsistent")

// An Event is one step of a data item's history, in reverse chronological
// order: at the end of transaction Tid the data was at Loc; if Op is OpCopy
// it had just been copied from Src, if OpInsert it had just been created.
type Event struct {
	Tid int64
	Op  provstore.OpKind
	Loc path.Path
	Src path.Path // for copies
}

// String renders the event for human consumption.
func (ev Event) String() string {
	switch ev.Op {
	case provstore.OpCopy:
		return fmt.Sprintf("txn %d: copied %s ← %s", ev.Tid, ev.Loc, ev.Src)
	case provstore.OpInsert:
		return fmt.Sprintf("txn %d: inserted %s", ev.Tid, ev.Loc)
	default:
		return fmt.Sprintf("txn %d: %s %s", ev.Tid, ev.Op, ev.Loc)
	}
}

// A TraceResult is the full backward history of one location.
type TraceResult struct {
	// Events lists copy/insert steps, most recent first.
	Events []Event
	// Origin is how the chain ended.
	Origin Origin
	// External is the first location outside the traced database the
	// chain reached (set when Origin == OriginExternal).
	External path.Path
}

// Origin classifies how a trace ended.
type Origin int

// Trace chain endings.
const (
	// OriginInserted: the chain reached the transaction that inserted
	// the data.
	OriginInserted Origin = iota
	// OriginExternal: the chain left the traced database (the data was
	// copied from an external source whose provenance this store cannot
	// see — the paper's "partial answer").
	OriginExternal
	// OriginPreexisting: the chain ran past the oldest recorded
	// transaction; the data predates provenance tracking.
	OriginPreexisting
)

// String names the origin.
func (o Origin) String() string {
	switch o {
	case OriginInserted:
		return "inserted"
	case OriginExternal:
		return "external"
	case OriginPreexisting:
		return "preexisting"
	default:
		return fmt.Sprintf("Origin(%d)", int(o))
	}
}

// horizon resolves an ancestry plan's tnow: the pinned AsOf, or the
// store's newest transaction — resolved here, wherever the plan executes,
// so a delegated plan costs the client no extra round trip.
func (pl *Plan) horizon(ctx context.Context) (int64, error) {
	if pl.asOf > 0 {
		return pl.asOf, nil
	}
	st, err := pl.b.Stat(ctx)
	return st.MaxTid, err
}

// effectiveAt resolves the effective record for loc in every transaction
// up to tnow from one compiled select: the plan's access path is the
// ancestor scan, its tid bound cuts the (Tid, Loc)-ordered stream at the
// horizon, and for each transaction the record with the longest Loc
// (nearest ancestor-or-self) governs. Hierarchical inference materializes
// on the way out: copies rebase, inserts/deletes retarget.
func effectiveAt(ctx context.Context, b provstore.Backend, loc path.Path, tnow int64, ex *exec) (map[int64]provstore.Record, error) {
	q := &Query{Op: OpSelect, Where: Pred{LocAbove: loc.String(), TidMax: tnow}}
	pl, err := Compile(b, q)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]provstore.Record)
	for r, err := range pl.records(ctx, ex) {
		if err != nil {
			return nil, err
		}
		if prev, ok := out[r.Tid]; ok && prev.Loc.Len() >= r.Loc.Len() {
			continue
		}
		out[r.Tid] = r
	}
	for tid, r := range out {
		if r.Loc.Equal(loc) {
			continue
		}
		inf := provstore.Record{Tid: tid, Op: r.Op, Loc: loc}
		if r.Op == provstore.OpCopy {
			src, err := loc.Rebase(r.Loc, r.Src)
			if err != nil {
				return nil, err
			}
			inf.Src = src
		}
		out[tid] = inf
	}
	return out, nil
}

// runTrace computes the backward history of the plan's path as of its
// horizon. The context is observed between chain steps (each step is one
// select), so a trace over a slow or remote store can be cancelled.
func (pl *Plan) runTrace(ctx context.Context, ex *exec) (TraceResult, error) {
	var res TraceResult
	tnow, err := pl.horizon(ctx)
	if err != nil {
		return res, err
	}
	cur := pl.path
	eff, err := effectiveAt(ctx, pl.b, cur, tnow, ex.sub("step:"))
	if err != nil {
		return res, err
	}
	for t := tnow; t >= 1; t-- {
		rec, ok := eff[t]
		if !ok {
			continue // Unch(t, cur)
		}
		switch rec.Op {
		case provstore.OpInsert:
			res.Events = append(res.Events, Event{Tid: t, Op: provstore.OpInsert, Loc: cur})
			res.Origin = OriginInserted
			return res, nil
		case provstore.OpCopy:
			res.Events = append(res.Events, Event{Tid: t, Op: provstore.OpCopy, Loc: cur, Src: rec.Src})
			cur = rec.Src
			if cur.DB() != pl.path.DB() {
				// The chain leaves this database; without the source's
				// own provenance store the answer is necessarily
				// partial (§2.2).
				res.Origin = OriginExternal
				res.External = cur
				return res, nil
			}
			if eff, err = effectiveAt(ctx, pl.b, cur, tnow, ex.sub("step:")); err != nil {
				return res, err
			}
		case provstore.OpDelete:
			// Live data cannot trace through its own deletion.
			return res, fmt.Errorf("%w: %s deleted in txn %d", ErrBadTrace, cur, t)
		}
	}
	res.Origin = OriginPreexisting
	return res, nil
}

// runSrc answers which transaction first created the data at the plan's
// path: a trace plus the paper's getSrc verification probe against the
// store's effective record.
func (pl *Plan) runSrc(ctx context.Context, ex *exec) (int64, bool, error) {
	tr, err := pl.runTrace(ctx, ex)
	if err != nil {
		return 0, false, err
	}
	if tr.Origin != OriginInserted {
		return 0, false, nil
	}
	last := tr.Events[len(tr.Events)-1]
	rec, ok, err := provstore.Effective(ctx, pl.b, last.Tid, last.Loc)
	if err != nil {
		return 0, false, err
	}
	if !ok || rec.Op != provstore.OpInsert {
		return 0, false, fmt.Errorf("provplan: Src verification failed for %s at txn %d", last.Loc, last.Tid)
	}
	return last.Tid, true, nil
}

// runHist answers every transaction that copied the data at the plan's
// path, most recent first: the copy steps of the trace.
func (pl *Plan) runHist(ctx context.Context, ex *exec) ([]int64, error) {
	tr, err := pl.runTrace(ctx, ex)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, ev := range tr.Events {
		if ev.Op == provstore.OpCopy {
			out = append(out, ev.Tid)
		}
	}
	return out, nil
}

// region is a traced subtree with an upper transaction bound: records in
// the region count toward Mod only up to bound (data copied into the main
// region at transaction t came from the source region as of t-1; later
// changes to the source are irrelevant).
type region struct {
	prefix path.Path
	bound  int64
}

// runMod answers every transaction that created, modified or deleted data
// in the subtree at the plan's path, as of its horizon. The walk is the
// same BFS with per-location shadowing the paper's semantics dictate (§2.2;
// legacy_test.go keeps the client-orchestrated original). Each wave's region
// scans are declarative selects — the subtree scan and the ancestor scan of
// each unique region prefix, with the region's tid bound pushed into the
// plan — run one after another through runAll.
//
// A region in another database than the queried path's is dropped when
// the store holds no record of that database at all: both of its selects
// read only locations under the region's first label, so they would return
// nothing. One ByPrefix probe per source database decides it, broken off at
// its first record and kept for the rest of the query. Copies from an
// external source are the common case, and this is where trace stops with
// OriginExternal; a store that does hold the source's provenance still
// scans its regions.
func (pl *Plan) runMod(ctx context.Context, ex *exec) ([]int64, error) {
	tnow, err := pl.horizon(ctx)
	if err != nil {
		return nil, err
	}
	result := make(map[int64]struct{})
	seen := make(map[path.Path]int64) // region prefix -> highest bound processed
	held := make(map[string]bool)     // source database -> the store holds a record of it
	queue := []region{{pl.path, tnow}}
	for len(queue) > 0 {
		// Cancellation is observed between BFS waves: the walk stops
		// before the next wave's first scan.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Drop regions an earlier wave already covered with a bound at
		// least as high, and regions of a database the store holds
		// nothing of, then plan one select pair per unique prefix.
		// Several bounds for one prefix share the scans of the highest
		// bound — the per-region filter below re-applies each bound.
		wave := queue[:0:0]
		for _, g := range queue {
			if prev, ok := seen[g.prefix]; ok && prev >= g.bound {
				continue
			}
			if db := g.prefix.DB(); db != pl.path.DB() {
				if _, probed := held[db]; !probed {
					if held[db], err = pl.holds(ctx, g.prefix.Prefix(1), ex); err != nil {
						return nil, err
					}
				}
				if !held[db] {
					continue
				}
			}
			wave = append(wave, g)
		}
		queue = nil
		prefixes := make([]path.Path, 0, len(wave))
		scanIdx := make(map[path.Path]int, len(wave))
		bounds := make([]int64, 0, len(wave))
		for _, g := range wave {
			if i, ok := scanIdx[g.prefix]; ok {
				if g.bound > bounds[i] {
					bounds[i] = g.bound
				}
				continue
			}
			scanIdx[g.prefix] = len(prefixes)
			prefixes = append(prefixes, g.prefix)
			bounds = append(bounds, g.bound)
		}

		// Two selects per unique prefix — records inside the region and
		// records at or above its prefix — bounded at the prefix's
		// highest wave bound.
		qs := make([]*Query, 0, 2*len(prefixes))
		for i, prefix := range prefixes {
			qs = append(qs,
				// The subtree scan keeps its access path's native
				// (Loc, Tid) order so it streams without a sort; the
				// gather re-sorts newest-first anyway.
				&Query{Op: OpSelect, Where: Pred{LocUnder: prefix.String(), TidMax: bounds[i]}, Order: OrderLocTid},
				&Query{Op: OpSelect, Where: Pred{LocAbove: prefix.String(), TidMax: bounds[i]}})
		}
		scans, err := runAll(ctx, pl.b, qs, ex.sub("wave:"))
		if err != nil {
			return nil, err
		}

		// Gather: merge sequentially in queue order (the shadow and seen
		// bookkeeping is order-sensitive).
		for _, g := range wave {
			if prev, ok := seen[g.prefix]; ok && prev >= g.bound {
				continue
			}
			seen[g.prefix] = g.bound

			i := scanIdx[g.prefix]
			inside, above := scans[2*i], scans[2*i+1]
			recs := make([]provstore.Record, 0, len(inside)+len(above))
			recs = append(recs, inside...)
			for _, r := range above {
				if !r.Loc.Equal(g.prefix) { // exact-loc records are in `inside`
					recs = append(recs, r)
				}
			}
			// Newest first; shadowed locations drop older records.
			sort.Slice(recs, func(i, j int) bool { return recs[i].Tid > recs[j].Tid })
			shadow := make(map[path.Path]struct{})
			for _, r := range recs {
				if r.Tid > g.bound {
					continue
				}
				if _, dead := shadow[r.Loc]; dead {
					continue
				}
				shadow[r.Loc] = struct{}{}
				ancestor := r.Loc.IsStrictPrefixOf(g.prefix)
				if ancestor && r.Op == provstore.OpInsert {
					// An insert at an ancestor creates an empty node: no
					// data at paths extending the region's prefix.
					continue
				}
				result[r.Tid] = struct{}{}
				if r.Op != provstore.OpCopy {
					continue
				}
				if ancestor {
					src, rerr := g.prefix.Rebase(r.Loc, r.Src)
					if rerr != nil {
						return nil, rerr
					}
					queue = append(queue, region{src, r.Tid - 1})
				} else {
					queue = append(queue, region{r.Src, r.Tid - 1})
				}
			}
		}
	}
	out := make([]int64, 0, len(result))
	for t := range result {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// holds reports whether the store has any record under db: one ByPrefix
// probe, broken off at its first record, and analyzed as its own operator.
func (pl *Plan) holds(ctx context.Context, db path.Path, ex *exec) (bool, error) {
	for _, err := range ex.op("probe:scan-loc-prefix").stream(pl.b.Scan(ctx, provstore.ByPrefix(db)), nil) {
		return err == nil, err
	}
	return false, nil
}
