package provtrace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provobs"
)

// A Trace is one stored trace: the summary the list endpoint serves plus
// the flat span set the tree is built from. Spans from a chained daemon's
// half of the trace are merged in at read time, not stored here.
type Trace struct {
	TraceID string        `json:"trace_id"`
	Root    string        `json:"root"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Err     bool          `json:"err,omitempty"`
	Slow    bool          `json:"slow,omitempty"`
	Spans   []Span        `json:"spans,omitempty"`
}

// A Store keeps recently recorded traces in a fixed-capacity ring buffer:
// the daemon's -trace-buffer. Insertion evicts the oldest stored trace once
// the ring is full, so memory is bounded by capacity however long the
// daemon runs. Every finished trace is stored: recording is per-request
// when tracing is on, so storing is the cheap half, and a trace continued
// from another process is never missing its inner half. A trace whose root
// took at least the store's slow threshold is flagged Slow, one with a
// failed span Err.
type Store struct {
	capacity int
	slow     time.Duration

	mu   sync.Mutex
	ring []*Trace // FIFO by insertion; ring[head] is the oldest
	head int
	byID map[string]*Trace

	reg     *provobs.Registry
	stored  *provobs.Counter
	evicted *provobs.Counter
	kept    *provobs.Gauge
}

// NewStore returns a trace store holding at most capacity traces (min 1)
// and flagging traces with root duration >= slow as Slow (slow <= 0 flags
// none).
func NewStore(capacity int, slow time.Duration) *Store {
	if capacity < 1 {
		capacity = 1
	}
	st := &Store{
		capacity: capacity,
		slow:     slow,
		ring:     make([]*Trace, 0, capacity),
		byID:     make(map[string]*Trace, capacity),
		reg:      provobs.NewRegistry(),
	}
	st.stored = st.reg.Counter("cpdb_trace_stored_total",
		"Traces stored in the ring buffer.", provobs.WithStatKey("trace.stored"))
	st.evicted = st.reg.Counter("cpdb_trace_evicted_total",
		"Traces evicted from the ring buffer.", provobs.WithStatKey("trace.evicted"))
	st.kept = st.reg.Gauge("cpdb_trace_buffered",
		"Traces currently in the ring buffer.", provobs.WithStatKey("trace.buffered"))
	return st
}

// Registry exposes the store's counters for /metrics and /v1/stats. The
// keys only appear when tracing is enabled, preserving tracing-off
// byte-identity of both endpoints.
func (st *Store) Registry() *provobs.Registry { return st.reg }

// Finish files the recorder's trace into the store. The trace's summary —
// root name, start, duration, error — comes from its root span: the
// recorded span whose parent is the recorder's remote parent id (or the
// longest span, if instrumentation never closed a root). A nil store or
// recorder, or a recorder with no finished span, stores nothing.
func (st *Store) Finish(rec *Recorder) {
	if st == nil || rec == nil {
		return
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		return
	}
	t := summarize(rec, spans)
	if st.slow > 0 && t.Dur >= st.slow {
		t.Slow = true
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.byID[t.TraceID]; ok {
		// Another request of the same trace is already stored (one CLI
		// recorder can issue several RPCs): merge rather than duplicate.
		mergeInto(prev, t)
		return
	}
	if len(st.ring) < st.capacity {
		st.ring = append(st.ring, t)
	} else {
		old := st.ring[st.head]
		delete(st.byID, old.TraceID)
		st.ring[st.head] = t
		st.head = (st.head + 1) % st.capacity
		st.evicted.Add(1)
	}
	st.byID[t.TraceID] = t
	st.stored.Add(1)
	st.kept.Set(int64(len(st.byID)))
}

// summarize builds the stored trace from one recorder's spans.
func summarize(rec *Recorder, spans []Span) *Trace {
	t := &Trace{TraceID: rec.traceID, Spans: spans}
	root := -1
	for i := range spans {
		if spans[i].Err != "" {
			t.Err = true
		}
		if spans[i].ParentID == rec.parent {
			if root < 0 || spans[i].Start.Before(spans[root].Start) {
				root = i
			}
		}
	}
	if root < 0 { // no span closed at the recorder's top level: take the longest
		for i := range spans {
			if root < 0 || spans[i].Dur > spans[root].Dur {
				root = i
			}
		}
	}
	t.Root = spans[root].Name
	t.Start = spans[root].Start
	t.Dur = spans[root].Dur
	return t
}

// mergeInto folds a later request's spans into an already-stored trace.
func mergeInto(dst *Trace, src *Trace) {
	dst.Spans = append(dst.Spans, src.Spans...)
	dst.Err = dst.Err || src.Err
	dst.Slow = dst.Slow || src.Slow
	if src.Start.Before(dst.Start) {
		dst.Root, dst.Start, dst.Dur = src.Root, src.Start, src.Dur
	}
}

// Get returns the stored trace with the given id, or nil. The returned
// copy's span slice is private to the caller.
func (st *Store) Get(id string) *Trace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.byID[id]
	if !ok {
		return nil
	}
	cp := *t
	cp.Spans = make([]Span, len(t.Spans))
	copy(cp.Spans, t.Spans)
	return &cp
}

// List returns summaries (no spans) of stored traces, newest first,
// filtered to root duration >= minDur, at most limit (<=0 means all).
func (st *Store) List(minDur time.Duration, limit int) []Trace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Trace, 0, len(st.ring))
	// Walk newest-to-oldest: the ring is FIFO with ring[head] oldest.
	for i := len(st.ring) - 1; i >= 0; i-- {
		t := st.ring[(st.head+i)%len(st.ring)]
		if t.Dur < minDur {
			continue
		}
		cp := *t
		cp.Spans = nil
		out = append(out, cp)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Len returns the number of stored traces.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.ring)
}

// StartRoot opens a fresh trace rooted at name and returns a context
// recording into it; the returned span's End files the whole trace into
// the store. This is how background work with no
// incoming request — the replication applier's apply passes — gets traced.
// A nil store returns (ctx, nil): the instrumentation is free when tracing
// is off.
func (st *Store) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if st == nil {
		return ctx, nil
	}
	rec := NewRecorder("", "")
	ctx, sp := Start(WithRecorder(ctx, rec), name)
	sp.sink = st
	return ctx, sp
}

// defaultStore is the process-wide sink for background traces: code with
// no request context (the replication applier) roots traces here. Set by
// the daemon when -trace-buffer is enabled; nil means background tracing
// is off.
var defaultStore atomic.Pointer[Store]

// SetDefault installs (or, with nil, clears) the process-wide background
// trace sink.
func SetDefault(st *Store) { defaultStore.Store(st) }

// Default returns the process-wide background trace sink, possibly nil
// (nil is still a valid StartRoot receiver).
func Default() *Store { return defaultStore.Load() }
