package provplan

import (
	"context"
	"iter"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// A RowKind discriminates the variants of a result Row.
type RowKind int

const (
	// RowRecord carries one matching record (select).
	RowRecord RowKind = iota
	// RowTid carries one transaction id (mod, hist).
	RowTid
	// RowValue carries one scalar answer (aggregates, src). Found is
	// false when the answer does not exist (min/max of an empty result,
	// src of external or pre-existing data).
	RowValue
	// RowEvent carries one trace step.
	RowEvent
	// RowEnd terminates a trace with its origin classification.
	RowEnd
	// RowAnalyze carries the per-operator execution analysis — the final
	// row of an analyze-mode stream, after every data row.
	RowAnalyze
)

// A Row is one element of a query's result stream — the tagged union the
// /v1/query row stream carries. Which variants appear, and in what
// shape, depends on the query kind:
//
//	select        RowRecord*               (in the requested order)
//	select w/ agg RowValue
//	src           RowValue
//	mod, hist     RowTid*
//	trace         RowEvent* RowEnd
//
// A query with Analyze set appends one RowAnalyze after its data rows,
// whatever its kind.
type Row struct {
	Kind RowKind

	Rec      provstore.Record // RowRecord
	Tid      int64            // RowTid
	Val      int64            // RowValue
	Found    bool             // RowValue
	Event    Event            // RowEvent
	Origin   Origin           // RowEnd
	External path.Path        // RowEnd (when Origin == OriginExternal)
	Analysis *Analysis        // RowAnalyze
}

// A Result is a drained row stream, decoded by query kind; see Collect.
type Result struct {
	// Records holds a select's matching records.
	Records []provstore.Record
	// Tids holds a mod or hist answer.
	Tids []int64
	// Value/Found hold an aggregate or src answer.
	Value int64
	Found bool
	// Trace holds a trace answer.
	Trace TraceResult
	// Analysis holds the per-operator execution measurements of an
	// analyze-mode query (local or delegated); nil otherwise.
	Analysis *Analysis
}

// An Executor is a backend that can execute a whole declarative plan
// itself — the cpdb:// client implements it by shipping the Query to the
// server's POST /v1/query, so the entire query (every chain step of a
// trace, every BFS wave of a mod) costs one round trip. Run prefers an
// Executor over local compilation.
type Executor interface {
	ExecPlan(ctx context.Context, q *Query) iter.Seq2[Row, error]
}

// Run executes q against b and streams the result rows: delegated wholesale
// when the backend is an Executor, compiled and run locally otherwise. The
// returned cursor follows the provstore cursor contract (in-stream errors,
// prompt release on break, cancellation between rows).
func Run(ctx context.Context, b provstore.Backend, q *Query) iter.Seq2[Row, error] {
	if ex, ok := b.(Executor); ok {
		return ex.ExecPlan(ctx, q)
	}
	pl, err := Compile(b, q)
	if err != nil {
		return rowError(err)
	}
	return pl.Rows(ctx)
}

// Collect executes q against b (delegating like Run) and drains the row
// stream into a Result.
func Collect(ctx context.Context, b provstore.Backend, q *Query) (*Result, error) {
	return CollectRows(Run(ctx, b, q))
}

// CollectRows drains a row stream into a Result.
func CollectRows(rows iter.Seq2[Row, error]) (*Result, error) {
	res := &Result{}
	for row, err := range rows {
		if err != nil {
			return nil, err
		}
		switch row.Kind {
		case RowRecord:
			res.Records = append(res.Records, row.Rec)
		case RowTid:
			res.Tids = append(res.Tids, row.Tid)
		case RowValue:
			res.Value, res.Found = row.Val, row.Found
		case RowEvent:
			res.Trace.Events = append(res.Trace.Events, row.Event)
		case RowEnd:
			res.Trace.Origin, res.Trace.External = row.Origin, row.External
		case RowAnalyze:
			res.Analysis = row.Analysis
		}
	}
	return res, nil
}

// rowError is a row cursor that yields nothing but err.
func rowError(err error) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		yield(Row{}, err)
	}
}

// Rows executes the plan and streams its result rows (see Row for the
// per-kind stream shapes). With Query.Analyze set, execution is tapped
// per operator and one RowAnalyze trailer follows the data rows — which is
// what POST /v1/query streams back, keeping a remote analyze at exactly
// one round trip.
func (pl *Plan) Rows(ctx context.Context) iter.Seq2[Row, error] {
	if !pl.q.Analyze && !provtrace.Active(ctx) {
		return pl.rows(ctx, nil)
	}
	// Analyze mode and tracing share the analyzer taps; a traced
	// non-analyze query measures operators but emits no RowAnalyze
	// trailer, so its row stream is byte-identical to an untraced run.
	ex := &exec{az: newAnalyzer()}
	return func(yield func(Row, error) bool) {
		spanCtx, sp := planSpan(ctx, string(pl.q.Op))
		defer func() { finishPlanSpan(spanCtx, sp, ex.az) }()
		for row, err := range pl.rows(spanCtx, ex) {
			if err != nil {
				sp.SetErr(err)
			}
			if !yield(row, err) || err != nil {
				return
			}
		}
		if pl.q.Analyze {
			yield(Row{Kind: RowAnalyze, Analysis: ex.az.analysis()}, nil)
		}
	}
}

func (pl *Plan) rows(ctx context.Context, ex *exec) iter.Seq2[Row, error] {
	switch pl.q.Op {
	case OpSelect:
		if pl.q.Agg != "" {
			return func(yield func(Row, error) bool) {
				v, found, err := pl.aggregate(ctx, ex)
				if err != nil {
					yield(Row{}, err)
					return
				}
				yield(Row{Kind: RowValue, Val: v, Found: found}, nil)
			}
		}
		return func(yield func(Row, error) bool) {
			for r, err := range pl.records(ctx, ex) {
				if err != nil {
					yield(Row{}, err)
					return
				}
				if !yield(Row{Kind: RowRecord, Rec: r}, nil) {
					return
				}
			}
		}
	case OpTrace:
		return func(yield func(Row, error) bool) {
			tr, err := pl.runTrace(ctx, ex)
			if err != nil {
				yield(Row{}, err)
				return
			}
			for _, ev := range tr.Events {
				if !yield(Row{Kind: RowEvent, Event: ev}, nil) {
					return
				}
			}
			yield(Row{Kind: RowEnd, Origin: tr.Origin, External: tr.External}, nil)
		}
	case OpSrc:
		return func(yield func(Row, error) bool) {
			tid, ok, err := pl.runSrc(ctx, ex)
			if err != nil {
				yield(Row{}, err)
				return
			}
			yield(Row{Kind: RowValue, Val: tid, Found: ok}, nil)
		}
	case OpHist, OpMod:
		return func(yield func(Row, error) bool) {
			var tids []int64
			var err error
			if pl.q.Op == OpHist {
				tids, err = pl.runHist(ctx, ex)
			} else {
				tids, err = pl.runMod(ctx, ex)
			}
			if err != nil {
				yield(Row{}, err)
				return
			}
			for _, t := range tids {
				if !yield(Row{Kind: RowTid, Tid: t}, nil) {
					return
				}
			}
		}
	default:
		return rowError(badQuery("unknown query kind %q", pl.q.Op))
	}
}
