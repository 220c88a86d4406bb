package provtrace

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTreeConcurrent ends one span per "shard" from parallel goroutines
// into one recorder — the shape of a sharded scatter-gather — and checks no
// span is lost and every child parents under the scatter's root. Run with
// -race this is the data-race regression for the recorder.
func TestSpanTreeConcurrent(t *testing.T) {
	rec := NewRecorder("t1", "")
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := Start(ctx, "scatter")

	const shards = 32
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "shard:scan")
			sp.SetAttr("shard", strconv.Itoa(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()

	spans := rec.Spans()
	if len(spans) != shards+1 {
		t.Fatalf("recorded %d spans, want %d", len(spans), shards+1)
	}
	var children int
	for _, sp := range spans {
		if sp.Name == "shard:scan" {
			children++
			if sp.ParentID != root.SpanID {
				t.Errorf("shard span parents under %q, want root %q", sp.ParentID, root.SpanID)
			}
			if sp.TraceID != "t1" {
				t.Errorf("shard span trace id %q, want t1", sp.TraceID)
			}
		}
	}
	if children != shards {
		t.Fatalf("found %d shard spans, want %d", children, shards)
	}

	roots := BuildTree(spans)
	if len(roots) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(roots))
	}
	if got := len(roots[0].Children); got != shards {
		t.Fatalf("root has %d children, want %d", got, shards)
	}
}

// TestNoRecorderIsFree pins the off path: no recorder means nil spans,
// empty ids, and an untouched context.
func TestNoRecorderIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatalf("Start without a recorder returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a recorder replaced the context")
	}
	if Active(ctx) {
		t.Fatalf("Active true without a recorder")
	}
	if tid, sid := IDs(ctx); tid != "" || sid != "" {
		t.Fatalf("IDs without a recorder = %q, %q", tid, sid)
	}
	// All nil-span methods must be safe no-ops.
	sp.SetAttr("k", "v")
	sp.SetErr(errors.New("boom"))
	sp.End()
}

// record runs one minimal trace into st and returns the stored trace.
func record(st *Store, traceID string, fail bool, rootDur time.Duration) *Trace {
	rec := NewRecorder(traceID, "")
	ctx := WithRecorder(context.Background(), rec)
	if rootDur > 0 {
		// A pre-measured root: Emit backdates the span, so the trace's root
		// duration is rootDur without the test sleeping.
		Emit(ctx, "root", time.Now().Add(-rootDur), rootDur)
	} else {
		_, sp := Start(ctx, "root")
		if fail {
			sp.SetErr(errors.New("boom"))
		}
		sp.End()
	}
	st.Finish(rec)
	return st.Get(traceID)
}

// TestSlowAndErrorTracesFlagged: every trace is stored; an error trace is
// flagged Err and one whose root reaches the slow threshold Slow.
func TestSlowAndErrorTracesFlagged(t *testing.T) {
	st := NewStore(16, 100*time.Millisecond)
	if got := record(st, "fast", false, 0); got == nil || got.Err || got.Slow {
		t.Fatalf("ordinary trace flagged or missing: %+v", got)
	}
	if got := record(st, "err", true, 0); got == nil || !got.Err || got.Slow {
		t.Fatalf("error trace not flagged: %+v", got)
	}
	if got := record(st, "slow", false, time.Second); got == nil || !got.Slow || got.Err {
		t.Fatalf("slow trace not flagged: %+v", got)
	}
}

// TestContinuedTraceRoot: a trace continued from another process (its
// recorder parents under a remote span) is stored with the local root
// span as its root — the outer daemon holds the other half.
func TestContinuedTraceRoot(t *testing.T) {
	st := NewStore(4, 0)
	rec := NewRecorder("cont", "remote-span")
	ctx := WithRecorder(context.Background(), rec)
	_, sp := Start(ctx, "server:query")
	sp.End()
	st.Finish(rec)
	got := st.Get("cont")
	if got == nil {
		t.Fatalf("continued trace not stored")
	}
	if got.Root != "server:query" {
		t.Fatalf("root %q, want server:query", got.Root)
	}
}

// TestRingEvictionOrder: the buffer is FIFO — filling past capacity evicts
// the oldest stored trace, and List walks newest first.
func TestRingEvictionOrder(t *testing.T) {
	st := NewStore(2, 0)
	for _, id := range []string{"t1", "t2", "t3"} {
		if record(st, id, false, 0) == nil {
			t.Fatalf("trace %s not stored", id)
		}
	}
	if st.Get("t1") != nil {
		t.Fatalf("oldest trace t1 survived eviction")
	}
	if st.Get("t2") == nil || st.Get("t3") == nil {
		t.Fatalf("newer traces evicted")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	ts := st.List(0, 0)
	if len(ts) != 2 || ts[0].TraceID != "t3" || ts[1].TraceID != "t2" {
		ids := make([]string, len(ts))
		for i := range ts {
			ids[i] = ts[i].TraceID
		}
		t.Fatalf("List order %v, want [t3 t2]", ids)
	}
}

// TestMergeSameTraceID: two requests of one trace (one CLI recorder issuing
// several RPCs) merge into a single stored trace, never a duplicate.
func TestMergeSameTraceID(t *testing.T) {
	st := NewStore(4, 0)
	if record(st, "m", true, 0) == nil {
		t.Fatalf("first half not stored")
	}
	if record(st, "m", false, 0) == nil { // ordinary second half: must merge
		t.Fatalf("second half of a stored trace dropped")
	}
	got := st.Get("m")
	if got == nil || len(got.Spans) != 2 {
		t.Fatalf("merged trace has %v spans, want 2", got)
	}
	if st.Len() != 1 {
		t.Fatalf("merge duplicated the ring entry: Len=%d", st.Len())
	}
}

// TestTreeSelfTime: a parent's self-time is its duration minus its
// children's, and the root's duration bounds the sum of child self-times.
func TestTreeSelfTime(t *testing.T) {
	now := time.Now()
	spans := []Span{
		{TraceID: "t", SpanID: "a", Name: "root", Start: now, Dur: 100 * time.Millisecond},
		{TraceID: "t", SpanID: "b", ParentID: "a", Name: "left", Start: now.Add(time.Millisecond), Dur: 30 * time.Millisecond},
		{TraceID: "t", SpanID: "c", ParentID: "a", Name: "right", Start: now.Add(2 * time.Millisecond), Dur: 50 * time.Millisecond},
	}
	roots := BuildTree(spans)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	if got := roots[0].Self; got != 20*time.Millisecond {
		t.Fatalf("root self-time %s, want 20ms", got)
	}
	var childSelf time.Duration
	for _, c := range roots[0].Children {
		childSelf += c.Self
	}
	if roots[0].Span.Dur < childSelf {
		t.Fatalf("root duration %s < sum of child self-times %s", roots[0].Span.Dur, childSelf)
	}

	tops := TopSelf(spans, 2)
	if len(tops) != 2 || tops[0].Name != "right" || tops[1].Name != "left" {
		t.Fatalf("TopSelf order wrong: %+v", tops)
	}
	if s := FormatTopSelf(tops); !strings.HasPrefix(s, "right=") {
		t.Fatalf("FormatTopSelf = %q", s)
	}

	var sb strings.Builder
	Render(&sb, roots)
	out := sb.String()
	for _, want := range []string{"root", "left", "right"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree misses %q:\n%s", want, out)
		}
	}
}

// TestOrphanParentBecomesRoot: a span whose parent was recorded in another
// process renders as a local root instead of vanishing.
func TestOrphanParentBecomesRoot(t *testing.T) {
	spans := []Span{
		{TraceID: "t", SpanID: "x", ParentID: "remote", Name: "server:query", Dur: time.Millisecond},
	}
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Span.Name != "server:query" {
		t.Fatalf("orphan span not promoted to root: %+v", roots)
	}
}

// TestStartRootFilesOnEnd: StartRoot's span files the trace into the store
// when it ends, and a nil store is a free no-op.
func TestStartRootFilesOnEnd(t *testing.T) {
	st := NewStore(4, 0)
	ctx, sp := st.StartRoot(context.Background(), "repl:apply")
	_, child := Start(ctx, "repl:read")
	child.End()
	sp.End()
	if st.Len() != 1 {
		t.Fatalf("StartRoot trace not filed: Len=%d", st.Len())
	}
	ts := st.List(0, 0)
	if ts[0].Root != "repl:apply" {
		t.Fatalf("background trace root %q, want repl:apply", ts[0].Root)
	}

	var nilStore *Store
	ctx2, sp2 := nilStore.StartRoot(context.Background(), "x")
	if sp2 != nil || Active(ctx2) {
		t.Fatalf("nil store StartRoot not free")
	}
}

// TestTraceID: ids are 16 hex characters, and the trace id rides the one
// context value with or without a recorder.
func TestTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace id lengths %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Errorf("two trace ids collided: %s", a)
	}
	if _, err := strconv.ParseUint(a, 16, 64); err != nil {
		t.Errorf("trace id %q is not hex: %v", a, err)
	}
	ctx := context.Background()
	if got, _ := IDs(ctx); got != "" {
		t.Errorf("IDs(background) = %q, want empty", got)
	}
	ctx = WithTraceID(ctx, a)
	if got, span := IDs(ctx); got != a || span != "" || Active(ctx) {
		t.Errorf("IDs round trip = %q, %q (active %v), want %q, no span, not recording", got, span, Active(ctx), a)
	}
	if _, sp := Start(ctx, "x"); sp != nil {
		t.Error("Start recorded a span under a correlate-only context")
	}
	if got, _ := IDs(WithRecorder(context.Background(), NewRecorder(a, ""))); got != a {
		t.Errorf("IDs under a recorder = %q, want %q", got, a)
	}
}
