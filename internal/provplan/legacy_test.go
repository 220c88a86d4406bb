package provplan_test

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// This file preserves the pre-planner, client-orchestrated query
// implementations: each chain step or BFS wave issues its own backend
// scans from the client. They are the reference oracle the plan-compiled
// queries are held equivalent to by TestPlanLegacyEquivalence, and nothing
// else: test code, unchanged in behaviour from the query engine they were.
// The one modernization is that a Mod wave's region scans go through
// runAll instead of the bespoke goroutine fan-out they used to carry.
// legacyMod visits every region, including those of a source database the
// store holds nothing of, which the planner's Mod skips.

// runAll compiles several select queries against b and executes them one
// after another on the caller's goroutine, materializing each result. Each
// runs through whatever access path its predicate admits; a sharded store
// still scatters every one of them across its shards below the plan.
// Results are positional; a compile error on any query fails the whole call
// before anything runs.
func runAll(ctx context.Context, b provstore.Backend, qs []*provplan.Query) ([][]provstore.Record, error) {
	plans := make([]*provplan.Plan, len(qs))
	for i, q := range qs {
		pl, err := provplan.Compile(b, q)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
	}
	out := make([][]provstore.Record, len(qs))
	for i, pl := range plans {
		recs, err := pl.Records(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = recs
	}
	return out, nil
}

// effectiveAt resolves the effective record for loc in every transaction,
// client-side, from one WithAncestors scan round trip: for each
// transaction the record with the longest Loc (nearest ancestor-or-self)
// governs. The cursor streams; only the winning record per transaction is
// retained, so memory is O(transactions touching loc), not O(records).
func effectiveAt(ctx context.Context, b provstore.Backend, loc path.Path) (map[int64]provstore.Record, error) {
	out := make(map[int64]provstore.Record)
	for r, err := range b.Scan(ctx, provstore.WithAncestors(loc)) {
		if err != nil {
			return nil, err
		}
		if prev, ok := out[r.Tid]; ok && prev.Loc.Len() >= r.Loc.Len() {
			continue
		}
		out[r.Tid] = r
	}
	// Materialize inference: rebase copies, retarget inserts/deletes.
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

// legacyTrace is the client-orchestrated Trace: one WithAncestors scan
// round trip per chain step, resolved client-side.
func legacyTrace(ctx context.Context, b provstore.Backend, p path.Path, tnow int64) (provplan.TraceResult, error) {
	var res provplan.TraceResult
	cur := p
	eff, err := effectiveAt(ctx, b, cur)
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
			res.Events = append(res.Events, provplan.Event{Tid: t, Op: provstore.OpInsert, Loc: cur})
			res.Origin = provplan.OriginInserted
			return res, nil
		case provstore.OpCopy:
			res.Events = append(res.Events, provplan.Event{Tid: t, Op: provstore.OpCopy, Loc: cur, Src: rec.Src})
			cur = rec.Src
			if cur.DB() != p.DB() {
				// The chain leaves this database; without the source's
				// own provenance store the answer is necessarily
				// partial (§2.2).
				res.Origin = provplan.OriginExternal
				res.External = cur
				return res, nil
			}
			if eff, err = effectiveAt(ctx, b, cur); err != nil {
				return res, err
			}
		case provstore.OpDelete:
			// Live data cannot trace through its own deletion.
			return res, fmt.Errorf("%w: %s deleted in txn %d", provplan.ErrBadTrace, cur, t)
		}
	}
	res.Origin = provplan.OriginPreexisting
	return res, nil
}

// legacySrc is the client-orchestrated Src: legacyTrace plus the paper's
// getSrc verification probe (two more round trips on a remote store).
func legacySrc(ctx context.Context, b provstore.Backend, p path.Path, tnow int64) (int64, bool, error) {
	tr, err := legacyTrace(ctx, b, p, tnow)
	if err != nil {
		return 0, false, err
	}
	if tr.Origin != provplan.OriginInserted {
		return 0, false, nil
	}
	last := tr.Events[len(tr.Events)-1]
	rec, ok, err := provstore.Effective(ctx, b, last.Tid, last.Loc)
	if err != nil {
		return 0, false, err
	}
	if !ok || rec.Op != provstore.OpInsert {
		return 0, false, fmt.Errorf("provplan: Src verification failed for %s at txn %d", last.Loc, last.Tid)
	}
	return last.Tid, true, nil
}

// legacyHist is the client-orchestrated Hist: the copy steps of
// legacyTrace.
func legacyHist(ctx context.Context, b provstore.Backend, p path.Path, tnow int64) ([]int64, error) {
	tr, err := legacyTrace(ctx, b, p, tnow)
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
// the region count toward Mod only up to Bound (data copied into the main
// region at transaction t came from the source region as of t-1; later
// changes to the source are irrelevant).
type region struct {
	prefix path.Path
	bound  int64
	key    string // binary encoding of prefix, computed once on enqueue
}

// newRegion builds a region, stamping its dedup key.
func newRegion(prefix path.Path, bound int64) region {
	return region{prefix: prefix, bound: bound, key: string(prefix.AppendBinary(nil))}
}

// legacyMod is the client-orchestrated Mod: records are walked backwards
// per traced region with per-location shadowing — the newest record at a
// location breaks the Unch chain through it, making older records at the
// same location unreachable (so, e.g., a placeholder inserted and
// immediately overwritten by a copy does not appear in Mod — matching the
// formal Trace semantics). Copies whose destination intersects the region
// spawn source regions bounded by the copying transaction. Inserts at
// strict ancestors create only empty nodes and contribute no rows at paths
// extending p, so they do not count.
//
// Regions are processed in BFS waves: every region of the current wave
// fetches its two scans — the subtree scan and the ancestor scan, as two
// declarative selects handed to runAll — then the wave's results
// merge sequentially in queue order.
func legacyMod(ctx context.Context, b provstore.Backend, p path.Path, tnow int64) ([]int64, error) {
	result := make(map[int64]struct{})
	seen := make(map[string]int64) // region prefix -> highest bound processed
	queue := []region{newRegion(p, tnow)}
	for len(queue) > 0 {
		// Cancellation is observed between BFS waves: the walk stops
		// before the next one starts.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Drop regions an earlier wave already covered with a bound at
		// least as high (seen bounds only ever grow, so this pre-filter
		// agrees with the authoritative gather-time check below), then
		// collect the unique prefixes — a prefix re-enqueued with several
		// bounds needs only one pair of scans.
		wave := queue[:0:0]
		for _, g := range queue {
			if prev, ok := seen[g.key]; ok && prev >= g.bound {
				continue
			}
			wave = append(wave, g)
		}
		queue = nil
		prefixes := make([]path.Path, 0, len(wave))
		scanIdx := make(map[string]int, len(wave))
		for _, g := range wave {
			if _, ok := scanIdx[g.key]; !ok {
				scanIdx[g.key] = len(prefixes)
				prefixes = append(prefixes, g.prefix)
			}
		}

		// Scatter: both scans of every unique prefix in the wave, as one
		// batch of unbounded region selects (the client-side bound filter
		// below is what makes this the legacy shape).
		qs := make([]*provplan.Query, 0, 2*len(prefixes))
		for _, prefix := range prefixes {
			qs = append(qs,
				&provplan.Query{Op: provplan.OpSelect, Where: provplan.Pred{LocUnder: prefix.String()}, Order: provplan.OrderLocTid},
				&provplan.Query{Op: provplan.OpSelect, Where: provplan.Pred{LocAbove: prefix.String()}})
		}
		scans, err := runAll(ctx, b, qs)
		if err != nil {
			return nil, err
		}

		// Gather: merge sequentially in queue order (the shadow and seen
		// bookkeeping is order-sensitive).
		for _, g := range wave {
			if prev, ok := seen[g.key]; ok && prev >= g.bound {
				continue
			}
			seen[g.key] = g.bound

			i := scanIdx[g.key]
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
			shadow := make(map[string]struct{})
			for _, r := range recs {
				if r.Tid > g.bound {
					continue
				}
				lk := string(r.Loc.AppendBinary(nil))
				if _, dead := shadow[lk]; dead {
					continue
				}
				shadow[lk] = struct{}{}
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
					queue = append(queue, newRegion(src, r.Tid-1))
				} else {
					queue = append(queue, newRegion(r.Src, r.Tid-1))
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
