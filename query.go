package cpdb

import (
	"context"
	"iter"

	"repro/internal/provplan"
	"repro/internal/provstore"
)

// A Query is a configured handle onto a session's provenance store: the
// paper's query interface (Src, Hist, Mod, Trace) plus record streaming,
// with two knobs the plain Session methods pin — the context under which
// backend round trips run, and the transaction horizon tnow the engine
// evaluates against.
//
// The zero configuration (s.Query()) behaves exactly like the legacy
// Session methods: background context, horizon = the store's newest
// transaction. AsOf rewinds the horizon for time travel; WithContext makes
// long scatter-gather queries cancellable.
//
// A Query is immutable after construction and safe for concurrent use.
type Query struct {
	s    *Session
	ctx  context.Context
	asOf int64 // 0 = the store's MaxTid at call time
}

// A QueryOption configures a Query.
type QueryOption func(*Query)

// AsOf pins the query's transaction horizon: every answer is computed as of
// the end of transaction tid, ignoring records of later transactions — the
// engine's time-travel capability, finally exposed. Historical answers
// equal what the same query returned when tid was the newest transaction
// (provenance records are immutable, so the prefix of the store up to tid
// is exactly the store as it was then). Pair with
// VersionedSession.VersionAt (or QueryAt) to line provenance-as-of up with
// data-as-of. tid <= 0 means "now".
func AsOf(tid int64) QueryOption {
	return func(q *Query) {
		if tid > 0 {
			q.asOf = tid
		} else {
			q.asOf = 0
		}
	}
}

// WithContext runs the query's backend round trips under ctx: cancelling it
// stops a sharded scatter-gather between waves and surfaces
// context.Canceled (via errors.Is) from the query method. A nil ctx means
// context.Background().
func WithContext(ctx context.Context) QueryOption {
	return func(q *Query) {
		if ctx == nil {
			ctx = context.Background()
		}
		q.ctx = ctx
	}
}

// Query returns a query handle over the session's provenance store. With no
// options it answers exactly like the legacy Session.Trace/Src/Hist/Mod;
// see AsOf and WithContext.
func (s *Session) Query(opts ...QueryOption) *Query {
	q := &Query{s: s, ctx: context.Background()}
	for _, o := range opts {
		o(q)
	}
	return q
}

// horizon resolves the query's tnow: the pinned AsOf transaction, or the
// store's newest transaction.
func (q *Query) horizon(ctx context.Context) (int64, error) {
	if q.asOf > 0 {
		return q.asOf, nil
	}
	st, err := q.s.backend.Stat(ctx)
	return st.MaxTid, err
}

// run executes one ancestry query kind through the plan layer. The pinned
// AsOf travels inside the query (0 = "now"), so the horizon resolves
// wherever the plan executes — on the daemon for a cpdb:// store, which is
// why a remote Trace costs one round trip, not a MaxTid probe plus one per
// chain step.
func (q *Query) run(kind string, p Path) (*provplan.Result, error) {
	return provplan.Collect(q.ctx, q.s.backend, &provplan.Query{Op: kind, Path: p.String(), AsOf: q.asOf})
}

// Trace returns the backward history of the data at p as of the query's
// horizon.
func (q *Query) Trace(p Path) (TraceResult, error) {
	res, err := q.run(provplan.OpTrace, p)
	if err != nil {
		return TraceResult{}, err
	}
	return res.Trace, nil
}

// Src answers which transaction first created the data at p as of the
// query's horizon; ok is false when the data pre-exists tracking or came
// from an external source.
func (q *Query) Src(p Path) (tid int64, ok bool, err error) {
	res, err := q.run(provplan.OpSrc, p)
	if err != nil {
		return 0, false, err
	}
	return res.Value, res.Found, nil
}

// Hist returns every transaction that copied the data at p as of the
// query's horizon, most recent first.
func (q *Query) Hist(p Path) ([]int64, error) {
	res, err := q.run(provplan.OpHist, p)
	if err != nil {
		return nil, err
	}
	return res.Tids, nil
}

// Mod returns every transaction up to the query's horizon that created,
// modified or deleted data in the subtree at p.
func (q *Query) Mod(p Path) ([]int64, error) {
	res, err := q.run(provplan.OpMod, p)
	if err != nil {
		return nil, err
	}
	if res.Tids == nil {
		return []int64{}, nil
	}
	return res.Tids, nil
}

// Plan parses and runs one declarative provenance query — the textual form
// of the plan algebra (see ParsePlanQuery for the grammar):
//
//	res, err := s.Query().Plan("select where loc>=T/c2 and op=C order loc-tid")
//	res, err := s.Query().Plan("trace T/c3")
//
// The whole query compiles to one plan over the store's cursors; against a
// cpdb:// store the plan ships to the daemon and executes next to the data,
// so any query — a filtered select, a multi-step trace, a mod BFS — costs
// exactly one round trip. A pinned AsOf horizon applies to the parsed query
// when it does not set its own (an explicit "asof N" in the text, or a tid
// bound in a select, wins).
func (q *Query) Plan(text string) (*PlanResult, error) {
	pq, err := provplan.Parse(text)
	if err != nil {
		return nil, err
	}
	return q.PlanQuery(pq)
}

// PlanQuery runs one declarative query built programmatically (or parsed by
// ParsePlanQuery). See Plan.
func (q *Query) PlanQuery(pq *PlanQuery) (*PlanResult, error) {
	return provplan.Collect(q.ctx, q.s.backend, q.pin(pq))
}

// PlanRows runs one declarative query and streams its result rows under the
// cursor contract (in-stream errors, prompt release on break) — the
// bounded-memory form of Plan for large selects.
func (q *Query) PlanRows(text string) iter.Seq2[PlanRow, error] {
	pq, err := provplan.Parse(text)
	if err != nil {
		return func(yield func(PlanRow, error) bool) { yield(PlanRow{}, err) }
	}
	return provplan.Run(q.ctx, q.s.backend, q.pin(pq))
}

// pin applies the handle's AsOf horizon to a plan query that does not carry
// its own: ancestry kinds get AsOf, selects get an upper tid bound — so
// s.Query(AsOf(5)).Plan("select") time-travels like every other method on
// the handle. The caller's query is never mutated.
func (q *Query) pin(pq *PlanQuery) *PlanQuery {
	if q.asOf <= 0 || pq == nil {
		return pq
	}
	if pq.Op == provplan.OpSelect {
		return pinSelect(pq, q.asOf)
	}
	if pq.AsOf == 0 {
		cp := *pq
		cp.AsOf = q.asOf
		return &cp
	}
	return pq
}

// pinSelect bounds a select (and any join sub-select) at the horizon,
// copying only what it changes.
func pinSelect(pq *PlanQuery, asOf int64) *PlanQuery {
	cp := *pq
	changed := false
	if cp.Where.TidMax == 0 {
		cp.Where.TidMax = asOf
		changed = true
	}
	if cp.Join != nil && cp.Join.Sub != nil {
		if sub := pinSelect(cp.Join.Sub, asOf); sub != cp.Join.Sub {
			cp.Join = &provplan.Join{On: cp.Join.On, Sub: sub}
			changed = true
		}
	}
	if !changed {
		return pq
	}
	return &cp
}

// Records streams every stored provenance record up to the query's horizon,
// ordered by (Tid, Loc) — the session's Figure 5 table — through the
// backend's All() cursor: one scan round trip however many transactions
// the store holds (on a cpdb:// store, a single GET /v1/scan where the
// pre-cursor implementation issued one scan per transaction), with memory
// bounded by a page/chunk rather than the store. The horizon is pinned when
// iteration starts — AsOf's transaction, or the store's MaxTid at that
// moment — and bounds the scan (ScanSpec.Until): the store ends the stream
// at the first newer transaction, so nothing past the horizon is even read,
// and a transaction committing mid-drain cannot appear torn. The
// context is taken per call (not from WithContext) because iteration can
// long outlive the Query's construction; cancellation (or any store error)
// is yielded as the final pair's error, after which iteration stops.
// Breaking out of the loop releases the cursor (and cancels server-side
// work on a remote store).
//
//	for rec, err := range s.Query().Records(ctx) {
//		if err != nil {
//			return err
//		}
//		...
//	}
func (q *Query) Records(ctx context.Context) iter.Seq2[Record, error] {
	if ctx == nil {
		ctx = context.Background()
	}
	return func(yield func(Record, error) bool) {
		tnow, err := q.horizon(ctx)
		if err != nil {
			yield(Record{}, err)
			return
		}
		for r, err := range q.s.backend.Scan(ctx, provstore.All().Until(tnow)) {
			if !yield(r, err) || err != nil {
				return
			}
		}
	}
}
