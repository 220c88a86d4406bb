package provplan

import (
	"context"
	"strconv"
	"time"

	"repro/internal/provtrace"
)

// Distributed tracing of plan execution reuses the Analyze taps: when a
// trace recorder is installed on the context, Rows runs with the analyzer
// enabled even outside analyze mode, and when the plan finishes
// each measured operator is emitted as one span under the plan's span —
// EXPLAIN ANALYZE and tracing share a single instrumentation point, so
// their numbers can never disagree. Operator spans carry the tap's
// cumulative producer time; concurrent branches (shard streams) share one
// tap, so sibling spans may overlap the plan span rather than partition it —
// self-time math clamps accordingly (see provtrace.Node).

// planSpan opens the plan-level span (nil when tracing is off) and hands
// back the context operators should run under.
func planSpan(ctx context.Context, op string) (context.Context, *provtrace.Span) {
	if !provtrace.Active(ctx) {
		return ctx, nil
	}
	return provtrace.Start(ctx, "plan:"+op)
}

// finishPlanSpan emits one span per measured operator and closes the plan
// span. Operator spans start at the plan span's start: the taps measure
// duration, not placement.
func finishPlanSpan(ctx context.Context, sp *provtrace.Span, az *analyzer) {
	if sp == nil {
		return
	}
	an := az.analysis()
	for _, op := range an.Ops {
		provtrace.Emit(ctx, "op:"+op.Op, sp.Start, time.Duration(op.NS),
			provtrace.Attr{K: "in", V: strconv.FormatInt(op.In, 10)},
			provtrace.Attr{K: "out", V: strconv.FormatInt(op.Out, 10)})
	}
	sp.SetAttr("scanned", strconv.FormatInt(an.Scanned, 10))
	sp.End()
}
