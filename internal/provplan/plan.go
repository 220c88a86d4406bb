package provplan

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"repro/internal/path"
	"repro/internal/provstore"
)

// This file is the compiler: Compile turns a declarative Query into a Plan
// — an access-path choice plus a pipeline of composable cursor operators
// (filter, semi-join, early-stop, order, limit, aggregate), each an
// iter.Seq2[Record, error] transformer honoring the cursor contract of
// provstore/scan.go. Execution is lazy; nothing touches the backend until
// the plan's cursor is ranged.

// compiledPred is a Pred with its textual paths and patterns resolved.
type compiledPred struct {
	tidMin, tidMax int64
	ops            string
	locPat         *path.Pattern
	locUnder       *path.Path
	locAbove       *path.Path
	srcPat         *path.Pattern
	srcUnder       *path.Path
}

// match is the full predicate — always applied as the residual filter, so
// access-path selection can never change results, only work.
func (p *compiledPred) match(r provstore.Record) bool {
	if p.tidMin > 0 && r.Tid < p.tidMin {
		return false
	}
	if p.tidMax > 0 && r.Tid > p.tidMax {
		return false
	}
	if p.ops != "" && !strings.ContainsRune(p.ops, rune(r.Op)) {
		return false
	}
	if p.locPat != nil && !p.locPat.Matches(r.Loc) {
		return false
	}
	if p.locUnder != nil && !p.locUnder.IsPrefixOf(r.Loc) {
		return false
	}
	if p.locAbove != nil && !r.Loc.IsPrefixOf(*p.locAbove) {
		return false
	}
	if p.srcPat != nil && (r.Src.IsRoot() || !p.srcPat.Matches(r.Src)) {
		return false
	}
	if p.srcUnder != nil && (r.Src.IsRoot() || !p.srcUnder.IsPrefixOf(r.Src)) {
		return false
	}
	return true
}

func compilePred(w Pred) (compiledPred, error) {
	var cp compiledPred
	if w.TidMin < 0 || w.TidMax < 0 {
		return cp, badQuery("tid bounds must be positive")
	}
	cp.tidMin, cp.tidMax = w.TidMin, w.TidMax
	if cp.tidMin > 0 && cp.tidMax > 0 && cp.tidMin > cp.tidMax {
		return cp, badQuery("empty tid range %d..%d", cp.tidMin, cp.tidMax)
	}
	if w.Ops != "" {
		cp.ops = canonicalOps(w.Ops)
		for _, k := range cp.ops {
			if !provstore.OpKind(k).Valid() {
				return cp, badQuery("unknown op %q (want I, C or D)", string(k))
			}
		}
	}
	if w.Loc != "" {
		pat, err := path.ParsePattern(w.Loc)
		if err != nil {
			return cp, badQuery("loc pattern: %v", err)
		}
		cp.locPat = &pat
	}
	if w.LocUnder != "" {
		p, err := parsePathArg("loc>=", w.LocUnder)
		if err != nil {
			return cp, err
		}
		cp.locUnder = &p
	}
	if w.LocAbove != "" {
		p, err := parsePathArg("loc<=", w.LocAbove)
		if err != nil {
			return cp, err
		}
		cp.locAbove = &p
	}
	if w.Src != "" {
		pat, err := path.ParsePattern(w.Src)
		if err != nil {
			return cp, badQuery("src pattern: %v", err)
		}
		cp.srcPat = &pat
	}
	if w.SrcUnder != "" {
		p, err := parsePathArg("src>=", w.SrcUnder)
		if err != nil {
			return cp, err
		}
		cp.srcUnder = &p
	}
	return cp, nil
}

// A Plan is a compiled Query bound to a backend, ready to execute. Plans
// are immutable and safe for concurrent use; each Rows call is an
// independent execution.
type Plan struct {
	b provstore.Backend
	q *Query

	// select compilation
	pred     compiledPred
	join     *compiledJoin
	scan     provstore.ScanSpec  // the access path, bounded at the upper tid bound
	order    string              // resolved result order
	streamed bool                // access order satisfies the requested order
	shards   []provstore.Backend // non-nil: scatter below the merge, one subplan per shard

	// ancestry compilation
	path path.Path
	asOf int64

	noPushdown bool // compiled under options.NoPushdown
}

// compiledJoin is a Join with its subquery compiled.
type compiledJoin struct {
	on  string
	sub *Plan
}

// options tune compilation. The zero value is the default planner.
type options struct {
	// NoPushdown disables access-path selection, early stopping and
	// shard scatter: every select runs as a full All() scan with a
	// client-side residual filter — the baseline the bench sweep
	// compares the planner against.
	NoPushdown bool
}

// Compile validates q and builds its plan over b.
func Compile(b provstore.Backend, q *Query) (*Plan, error) {
	return compileWith(b, q, options{})
}

// compileWith is Compile with explicit options.
func compileWith(b provstore.Backend, q *Query, opts options) (*Plan, error) {
	if q == nil {
		return nil, badQuery("nil query")
	}
	switch q.Op {
	case OpSelect:
		return compileSelect(b, q, opts)
	case OpTrace, OpHist, OpMod, OpSrc:
		if q.AsOf < 0 {
			return nil, badQuery("asof must be positive")
		}
		p, err := parsePathArg("path", q.Path)
		if err != nil {
			return nil, err
		}
		return &Plan{b: b, q: q, path: p, asOf: q.AsOf}, nil
	default:
		return nil, badQuery("unknown query kind %q", q.Op)
	}
}

func compileSelect(b provstore.Backend, q *Query, opts options) (*Plan, error) {
	pl := &Plan{b: b, q: q}
	var err error
	if pl.pred, err = compilePred(q.Where); err != nil {
		return nil, err
	}
	switch q.Agg {
	case "", aggCount, aggMinTid, aggMaxTid:
	default:
		return nil, badQuery("unknown aggregate %q", q.Agg)
	}
	if q.Agg != "" && (q.Order != "" || q.Desc || q.Limit > 0) {
		return nil, badQuery("aggregate cannot combine with order/desc/limit")
	}
	if q.Limit < 0 {
		return nil, badQuery("limit must be positive")
	}
	pl.order = q.Order
	switch pl.order {
	case "":
		pl.order = OrderTidLoc
	case OrderTidLoc, OrderLocTid:
	default:
		return nil, badQuery("unknown order %q", q.Order)
	}
	if q.Join != nil {
		on := q.Join.On
		if on == "" {
			on = joinTid
		}
		switch on {
		case joinTid, joinSrcLoc, joinLocSrc:
		default:
			return nil, badQuery("unknown join variable %q", q.Join.On)
		}
		if q.Join.Sub == nil {
			return nil, badQuery("join without subquery")
		}
		if q.Join.Sub.Op != OpSelect {
			return nil, badQuery("join subquery must be a select, not %q", q.Join.Sub.Op)
		}
		if q.Join.Sub.Agg != "" {
			return nil, badQuery("join subquery cannot aggregate")
		}
		sub, err := compileWith(b, q.Join.Sub, opts)
		if err != nil {
			return nil, fmt.Errorf("join subquery: %w", err)
		}
		pl.join = &compiledJoin{on: on, sub: sub}
	}

	if opts.NoPushdown {
		pl.streamed = pl.order == OrderTidLoc && !q.Desc
		pl.noPushdown = true
		return pl, nil
	}
	pl.chooseAccess()

	// The upper tid bound travels in the access scan: the store stops at the
	// first record past it — the rest of the cursor is never read.
	if pl.pred.tidMax > 0 {
		pl.scan = pl.scan.Until(pl.pred.tidMax)
	}
	switch pl.scan.Kind {
	case provstore.KindAll, provstore.KindAncestors:
		pl.streamed = pl.order == OrderTidLoc
	case provstore.KindTid, provstore.KindPrefix:
		pl.streamed = pl.order == OrderLocTid
	case provstore.KindLoc:
		pl.streamed = true // a single location satisfies both orders
	}
	if q.Desc {
		pl.streamed = false
	}

	// Scatter paths on a sharded store push the residual filter (or the
	// whole aggregate) below the k-way merge, one subplan per shard.
	if sb, ok := b.(*provstore.ShardedBackend); ok && len(sb.Below()) > 1 {
		switch pl.scan.Kind {
		case provstore.KindAll, provstore.KindTid, provstore.KindPrefix:
			pl.shards = sb.Below()
		}
	}
	return pl, nil
}

// chooseAccess picks the most selective access path the predicate admits.
// The full predicate is always re-applied as the residual filter, so the
// choice affects only how many records are pulled, never which are kept.
func (pl *Plan) chooseAccess() {
	p := &pl.pred
	if p.locAbove != nil {
		pl.scan = provstore.WithAncestors(*p.locAbove)
		return
	}
	if p.locPat != nil && p.locPat.IsExact() {
		loc, _ := p.locPat.AsPath()
		pl.scan = provstore.ByLoc(loc)
		return
	}
	// The deepest concrete location prefix the loc predicates agree on:
	// an explicit loc>=P bound, or the concrete leading labels of a
	// wildcard pattern (every match of "T/a/*/b" lies under "T/a").
	var prefix path.Path
	if p.locUnder != nil {
		prefix = *p.locUnder
	}
	if p.locPat != nil {
		if cp := concretePrefix(*p.locPat); cp.Len() > prefix.Len() {
			prefix = cp
		}
	}
	if prefix.Len() > 0 {
		pl.scan = provstore.ByPrefix(prefix)
		return
	}
	if p.tidMin > 0 && p.tidMin == p.tidMax {
		pl.scan = provstore.ByTid(p.tidMin)
		return
	}
	if p.tidMin > 0 {
		// Every stored location is strictly greater than path.Root, so
		// the keys strictly after (tidMin, Root) are exactly the records
		// with Tid >= tidMin (pinned by TestSeekKeyForTidRange).
		pl.scan = provstore.All().After(p.tidMin, path.Root)
	}
}

// concretePrefix returns the longest leading run of non-wildcard components
// of a pattern as a path.
func concretePrefix(pat path.Pattern) path.Path {
	s := pat.String()
	if s == "" {
		return path.Root
	}
	labels := strings.Split(s, "/")
	n := 0
	for n < len(labels) && labels[n] != path.Wildcard {
		n++
	}
	p, err := path.TryNew(labels[:n]...)
	if err != nil {
		return path.Root
	}
	return p
}

// explain describes the chosen access path, stream cuts and parallelism,
// one line per plan node. The lines are built on each call; compiling a
// plan formats nothing.
func (pl *Plan) explain() []string {
	if pl.q.Op != OpSelect {
		return []string{fmt.Sprintf("%s(%s) via iterated selects", pl.q.Op, pl.path)}
	}
	parts := []string{"access=" + pl.scan.String()}
	if pl.q.Agg != "" {
		parts = append(parts, "agg="+pl.q.Agg)
	} else {
		mode := "sort"
		if pl.streamed {
			mode = "stream"
		}
		parts = append(parts, fmt.Sprintf("order=%s (%s)", pl.order, mode))
		if pl.q.Limit > 0 {
			parts = append(parts, fmt.Sprintf("limit=%d", pl.q.Limit))
		}
	}
	if pl.shards != nil {
		parts = append(parts, fmt.Sprintf("parallel=shards(%d)", len(pl.shards)))
	}
	if pl.join != nil {
		parts = append(parts, "semi-join="+pl.join.on)
	}
	if pl.noPushdown {
		parts = append(parts, "full-scan (pushdown disabled)")
	}
	lines := []string{strings.Join(parts, " ")}
	if pl.join != nil {
		for _, line := range pl.join.sub.explain() {
			lines = append(lines, "  sub: "+line)
		}
	}
	return lines
}

// --- execution --------------------------------------------------------------

// accessScan opens the plan's access cursor on one backend (a shard, or the
// whole store) under the access operator's tap, shared across shards: the
// tap totals what the whole scatter pulled.
func (pl *Plan) accessScan(ctx context.Context, b provstore.Backend, ex *exec) iter.Seq2[provstore.Record, error] {
	return ex.op(pl.accessOp()).stream(b.Scan(ctx, pl.scan), nil)
}

// accessOp is the analyze name of the access operator: the scan's kind,
// without its arguments, so the scans of one plan shape total in one row.
func (pl *Plan) accessOp() string { return "access:scan-" + pl.scan.Kind.String() }

// filtered applies the residual predicate and the optional join key filter
// on one access stream, under the filter tap t.
func (pl *Plan) filtered(scan iter.Seq2[provstore.Record, error], keys *joinKeys, t *opStat) iter.Seq2[provstore.Record, error] {
	return t.stream(scan, func(r provstore.Record) bool {
		return pl.pred.match(r) && (keys == nil || keys.match(r))
	})
}

// joinKeys is a materialized semi-join key set.
type joinKeys struct {
	on   string
	tids map[int64]struct{}
	locs map[path.Path]struct{}
}

func (k *joinKeys) match(r provstore.Record) bool {
	switch k.on {
	case joinTid:
		_, ok := k.tids[r.Tid]
		return ok
	case joinSrcLoc:
		if r.Src.IsRoot() {
			return false
		}
		_, ok := k.locs[r.Src]
		return ok
	default: // joinLocSrc
		_, ok := k.locs[r.Loc]
		return ok
	}
}

// buildJoinKeys runs the subquery and materializes the join key set. In
// analyze mode the subquery's operators run under the "sub:" prefix and the
// materialization itself reports as "join-build" (out = distinct keys).
func (pl *Plan) buildJoinKeys(ctx context.Context, ex *exec) (*joinKeys, error) {
	if pl.join == nil {
		return nil, nil
	}
	t := ex.op("join-build")
	start := t.start()
	keys := &joinKeys{on: pl.join.on}
	switch pl.join.on {
	case joinTid:
		keys.tids = make(map[int64]struct{})
	default:
		keys.locs = make(map[path.Path]struct{})
	}
	// The loop body returns nothing itself: a return inside it would move
	// this function's results to the heap on entry, a plan with no join too.
	var in int64
	var err error
	for r, rerr := range pl.join.sub.records(ctx, ex.sub("sub:")) {
		if err = rerr; err != nil {
			break
		}
		in++
		switch pl.join.on {
		case joinTid:
			keys.tids[r.Tid] = struct{}{}
		case joinSrcLoc:
			keys.locs[r.Loc] = struct{}{}
		default: // joinLocSrc
			if !r.Src.IsRoot() {
				keys.locs[r.Src] = struct{}{}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("join subquery: %w", err)
	}
	t.done(start, in, int64(len(keys.tids)+len(keys.locs)))
	return keys, nil
}

// matched is the ordered-by-access, filtered record stream — the plan body
// shared by the row and aggregate paths. The semi-join key set must already
// be built.
func (pl *Plan) matched(ctx context.Context, keys *joinKeys, ex *exec) iter.Seq2[provstore.Record, error] {
	ft := ex.op("filter")
	if pl.shards == nil {
		return pl.filtered(pl.accessScan(ctx, pl.b, ex), keys, ft)
	}
	// Scatter: one filtered subplan per shard, merged back into the
	// access order. Each shard's stream is cut and filtered independently
	// (below the merge), so the merge only ever sees matching records.
	// All shards share the access and filter taps — the analysis reports
	// scatter totals, not per-shard rows.
	cursors := make([]iter.Seq2[provstore.Record, error], len(pl.shards))
	for i, shard := range pl.shards {
		cursors[i] = pl.filtered(pl.accessScan(ctx, shard, ex), keys, ft)
	}
	return ex.op("merge").stream(provstore.MergeScans(pl.scan.Order(), cursors...), nil)
}

// records executes a select plan as a record cursor in the requested order,
// applying limit. The cursor follows the provstore cursor contract.
func (pl *Plan) records(ctx context.Context, ex *exec) iter.Seq2[provstore.Record, error] {
	if pl.q.Op != OpSelect || pl.q.Agg != "" {
		return provstore.ScanError(badQuery("%s plan has no record stream", pl.q.Op))
	}
	return func(yield func(provstore.Record, error) bool) {
		keys, err := pl.buildJoinKeys(ctx, ex)
		if err != nil {
			yield(provstore.Record{}, err)
			return
		}
		stream := pl.matched(ctx, keys, ex)
		if !pl.streamed {
			t := ex.op("sort")
			start := t.start()
			recs, err := provstore.CollectScan(stream)
			if err != nil {
				yield(provstore.Record{}, err)
				return
			}
			cmp := provstore.CompareTidLoc
			if pl.order == OrderLocTid {
				cmp = provstore.CompareLocTid
			}
			sort.SliceStable(recs, func(i, j int) bool { return cmp(recs[i], recs[j]) < 0 })
			if pl.q.Desc {
				slices.Reverse(recs)
			}
			t.done(start, int64(len(recs)), int64(len(recs)))
			stream = provstore.ScanSlice(recs)
		}
		n := 0
		for r, err := range ex.op("output").stream(stream, nil) {
			if err != nil {
				yield(provstore.Record{}, err)
				return
			}
			if !yield(r, nil) {
				return
			}
			n++
			if pl.q.Limit > 0 && n >= pl.q.Limit {
				return
			}
		}
	}
}

// Records executes a select plan and materializes its records.
func (pl *Plan) Records(ctx context.Context) ([]provstore.Record, error) {
	return provstore.CollectScan(pl.records(ctx, nil))
}

// aggPartial is one stream's aggregate contribution.
type aggPartial struct {
	count int64
	min   int64
	max   int64
	found bool
}

func (a *aggPartial) add(r provstore.Record) {
	a.count++
	if !a.found || r.Tid < a.min {
		a.min = r.Tid
	}
	if !a.found || r.Tid > a.max {
		a.max = r.Tid
	}
	a.found = true
}

func (a *aggPartial) merge(b aggPartial) {
	if !b.found {
		return
	}
	a.count += b.count
	if !a.found || b.min < a.min {
		a.min = b.min
	}
	if !a.found || b.max > a.max {
		a.max = b.max
	}
	a.found = true
}

// aggregate executes an aggregating select. On a sharded store the whole
// aggregate runs once per shard concurrently (no merge at all) and the
// partials combine. Taps are registered before the fan-out so the analysis
// lists operators in wiring order regardless of shard scheduling.
func (pl *Plan) aggregate(ctx context.Context, ex *exec) (val int64, found bool, err error) {
	keys, err := pl.buildJoinKeys(ctx, ex)
	if err != nil {
		return 0, false, err
	}
	ex.op(pl.accessOp())
	ft := ex.op("filter")
	at := ex.op("agg:" + pl.q.Agg)
	start := at.start()
	var total aggPartial
	if pl.shards != nil {
		partials := make([]aggPartial, len(pl.shards))
		err := provstore.Fanout(ctx, len(pl.shards), func(i int) error {
			for r, err := range pl.filtered(pl.accessScan(ctx, pl.shards[i], ex), keys, ft) {
				if err != nil {
					return err
				}
				partials[i].add(r)
			}
			return nil
		})
		if err != nil {
			return 0, false, err
		}
		for _, p := range partials {
			total.merge(p)
		}
	} else {
		for r, err := range pl.filtered(pl.accessScan(ctx, pl.b, ex), keys, ft) {
			if err != nil {
				return 0, false, err
			}
			total.add(r)
		}
	}
	at.done(start, total.count, 1)
	switch pl.q.Agg {
	case aggCount:
		return total.count, true, nil
	case aggMinTid:
		return total.min, total.found, nil
	default: // aggMaxTid
		return total.max, total.found, nil
	}
}

func runAll(ctx context.Context, b provstore.Backend, qs []*Query, ex *exec) ([][]provstore.Record, error) {
	plans := make([]*Plan, len(qs))
	for i, q := range qs {
		pl, err := Compile(b, q)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
	}
	out := make([][]provstore.Record, len(qs))
	for i, pl := range plans {
		recs, err := provstore.CollectScan(pl.records(ctx, ex))
		if err != nil {
			return nil, err
		}
		out[i] = recs
	}
	return out, nil
}
