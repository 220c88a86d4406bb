// Package provtrace is the span layer of the observability stack: causal,
// hierarchical timing that follows one request across every driver in a
// composite backend chain — and across processes, when daemons are chained
// — the way the provenance model itself follows a record across copy
// operations.
//
// A Span is one timed operation: {TraceID, SpanID, ParentID, Name, Attrs,
// Start, Dur, Err}. Spans open via context:
//
//	ctx, sp := provtrace.Start(ctx, "shard:scan")
//	defer sp.End()
//	sp.SetAttr("shard", "3")
//
// and form a tree through ParentID. The whole layer is pay-for-play: when
// no Recorder is installed on the context, Start returns a nil span after
// one context lookup, every span method is a nil-check, and no allocation
// happens — tracing-off execution is byte- and behavior-identical to a
// build without the calls.
//
// A Recorder collects the finished spans of one trace (concurrency-safe:
// sharded scatter-gather ends spans from many goroutines). The daemon keeps
// recorded traces in a ring-buffer Store (see store.go), flagging slow and
// error traces, and serves them over
// GET /v1/traces. Cross-process continuity comes from two headers: the
// existing X-Cpdb-Trace-Id names the trace, and X-Cpdb-Span-Id carries the
// caller's active span so the server's root span parents under it; each
// process stores only its own spans, and trees are merged at read time.
package provtrace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// An Attr is one key=value annotation on a span. Values are strings so
// spans marshal stably and render without reflection.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// A Span is one timed operation in a trace. The exported fields are the
// wire/record form (served by /v1/traces and stored in the ring buffer);
// the unexported recorder pointer makes the same struct the live handle
// returned by Start. A nil *Span is a valid no-op handle: every method
// checks the receiver, so call sites never branch on whether tracing is on.
type Span struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur_ns"`
	Err      string        `json:"err,omitempty"`

	rec  *Recorder // nil once ended, and on stored copies
	sink *Store    // root spans opened by Store.StartRoot flush here on End
}

// scope is the single context value for a request's identity: the trace id,
// the id of the currently active span (the parent of the next Start), and
// the trace's recorder — nil means "correlate, don't record": the id still
// flows down a backend chain, into request logs and error messages, but
// Start is a no-op. One Value lookup answers "which trace", "is tracing on"
// and "who is my parent".
type scope struct {
	traceID string
	spanID  string
	rec     *Recorder
}

type ctxKey struct{}

func scopeOf(ctx context.Context) *scope {
	sc, _ := ctx.Value(ctxKey{}).(*scope)
	return sc
}

// A Recorder collects the finished spans of one trace. It is safe for
// concurrent use: a sharded scatter-gather ends one span per shard from
// parallel goroutines, all into the same recorder.
type Recorder struct {
	traceID string
	parent  string // remote caller's span id; roots parent under it

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder for one trace. parentID is the remote
// caller's active span id ("" when this process originates the trace); the
// first span started under the recorder parents beneath it, which is what
// stitches a chained daemon's subtree under the caller's rpc span.
func NewRecorder(traceID, parentID string) *Recorder {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &Recorder{traceID: traceID, parent: parentID}
}

// TraceID returns the id of the trace being recorded.
func (r *Recorder) TraceID() string { return r.traceID }

// Spans returns a copy of the spans recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// WithRecorder installs rec on the context, making Start record spans under
// the recorder's trace id — the one id the request log, error wrapping and
// span tree all report.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, &scope{traceID: rec.traceID, spanID: rec.parent, rec: rec})
}

// WithTraceID returns ctx carrying the trace id and no recorder: the
// request is correlated across hops but no span is recorded.
func WithTraceID(ctx context.Context, traceID string) context.Context {
	return context.WithValue(ctx, ctxKey{}, &scope{traceID: traceID})
}

// Active reports whether a recorder is installed on ctx — the guard for
// instrumentation that would otherwise allocate (attribute formatting,
// cursor wrapping) even when tracing is off.
func Active(ctx context.Context) bool {
	sc := scopeOf(ctx)
	return sc != nil && sc.rec != nil
}

// IDs returns the trace id on ctx — whether or not a recorder is installed
// — and the currently active span id, or empty strings when there is none.
// The client uses the pair to stamp X-Cpdb-Trace-Id and X-Cpdb-Span-Id on
// outgoing requests.
func IDs(ctx context.Context) (traceID, spanID string) {
	sc := scopeOf(ctx)
	if sc == nil {
		return "", ""
	}
	return sc.traceID, sc.spanID
}

// Start opens a span named name under the currently active span. When no
// recorder is installed it returns (ctx, nil) after a single context
// lookup — the near-zero off path. The returned context carries the new
// span as the active parent; End records the span into the trace.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	sc := scopeOf(ctx)
	if sc == nil || sc.rec == nil {
		return ctx, nil
	}
	sp := &Span{
		TraceID:  sc.traceID,
		SpanID:   newSpanID(),
		ParentID: sc.spanID,
		Name:     name,
		Start:    time.Now(),
		rec:      sc.rec,
	}
	return context.WithValue(ctx, ctxKey{}, &scope{traceID: sc.traceID, spanID: sp.SpanID, rec: sc.rec}), sp
}

// Emit records an already-measured span — the bridge from the plan layer's
// Analyze taps, which accumulate per-operator time on their own and report
// it when the plan finishes. The span parents under ctx's active span. No
// recorder installed means no-op.
func Emit(ctx context.Context, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	sc := scopeOf(ctx)
	if sc == nil || sc.rec == nil {
		return
	}
	sc.rec.add(Span{
		TraceID:  sc.traceID,
		SpanID:   newSpanID(),
		ParentID: sc.spanID,
		Name:     name,
		Attrs:    attrs,
		Start:    start,
		Dur:      dur,
	})
}

// Mark emits a zero-duration marker span at the current instant — for
// point events like cache hits, where only the fact and its attrs matter.
// Free (no clock read) when the context carries no recorder.
func Mark(ctx context.Context, name string, attrs ...Attr) {
	if !Active(ctx) {
		return
	}
	Emit(ctx, name, time.Now(), 0, attrs...)
}

// SetAttr annotates the span with key=value. Safe on a nil or ended span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{K: k, V: v})
}

// SetErr marks the span failed with err's message (a nil error is
// ignored). The stored trace is flagged Err.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// End stamps the span's duration and records it into its trace. Safe on a
// nil span and idempotent: the second End is a no-op.
func (s *Span) End() {
	if s == nil || s.rec == nil {
		return
	}
	s.Dur = time.Since(s.Start)
	rec := s.rec
	s.rec = nil
	rec.add(*s)
	if s.sink != nil {
		s.sink.Finish(rec)
	}
}

// NewTraceID returns a fresh 16-hex-character trace id: random, unordered,
// carrying no information beyond identity. The cpdb:// client stamps every
// round trip with one (X-Cpdb-Trace-Id) unless its context already carries
// a trace, so a chained daemon's outgoing client reuses the caller's.
func NewTraceID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant id keeps
		// requests flowing (correlation degrades, nothing else does).
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// newSpanID returns 8 random bytes as 16 hex characters. Span ids only
// need to be unique within a trace (and cheap: one per instrumented
// operation on a hot path), so the process-seeded math/rand/v2 generator
// is used rather than crypto/rand.
func newSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	return hex.EncodeToString(b[:])
}
