package provhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/path"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// traceServe mounts a tracing Server over inner and returns a client plus
// the server's trace store.
func traceServe(t *testing.T, inner provstore.Backend, opts ...provhttp.ServerOption) (*provhttp.Client, *provtrace.Store, string) {
	t.Helper()
	st := provtrace.NewStore(64, 0)
	srv := provhttp.NewServer(inner, append([]provhttp.ServerOption{provhttp.WithTracing(st)}, opts...)...)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := b.(*provhttp.Client)
	t.Cleanup(func() { cli.Close() }) //nolint:errcheck // teardown
	return cli, st, hs.Listener.Addr().String()
}

// seedChain appends a small fixture through cli and flushes it down.
func seedChain(t *testing.T, cli *provhttp.Client) {
	t.Helper()
	ctx := context.Background()
	recs := []provstore.Record{
		rec(1, provstore.OpInsert, "T/c1", ""),
		rec(1, provstore.OpCopy, "T/c1/a", "S1/a"),
		rec(2, provstore.OpCopy, "T/c2", "S2/b"),
		rec(3, provstore.OpDelete, "T/c1/a", ""),
	}
	if err := cli.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTwoDaemonChainTrace is the tentpole's acceptance path: a traced
// query through two chained daemons — the outer backed by a cpdb:// client
// to the inner, the inner serving verified:// over a sharded store — must
// produce ONE trace whose merged tree holds spans from both daemons, with
// the per-shard and proof spans of the inner store visible from the outer
// daemon's /v1/traces/{id}.
func TestTwoDaemonChainTrace(t *testing.T) {
	innerBackend, err := provstore.OpenDSN("verified://?inner=" + url.QueryEscape("mem://?shards=2"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { provstore.Close(innerBackend) }) //nolint:errcheck // teardown
	innerCli, innerStore, _ := traceServe(t, innerBackend)
	outerCli, outerStore, _ := traceServe(t, innerCli)

	seedChain(t, outerCli)

	// One CLI-side recorder covers both RPCs, so they land in one trace.
	rec := provtrace.NewRecorder("", "")
	ctx := provtrace.WithRecorder(context.Background(), rec)

	q := provplan.MustParse("select where loc>=T/c1 order loc-tid")
	cq := *q
	cq.Analyze = true
	if _, err := provplan.Collect(ctx, outerCli, &cq); err != nil {
		t.Fatal(err)
	}
	c1 := path.MustParse("T/c1")
	proven := 0
	for _, err := range outerCli.ScanProven(ctx, provstore.ByLoc(c1).After(0, c1).Until(1)) {
		if err != nil {
			t.Fatal(err)
		}
		proven++
	}
	if proven != 1 {
		t.Fatalf("proven point scan through the chain yielded %d records, want 1", proven)
	}

	id := rec.TraceID()
	if outerStore.Get(id) == nil {
		t.Fatal("outer daemon did not store the continued trace")
	}
	if innerStore.Get(id) == nil {
		t.Fatal("inner daemon did not store its half of the trace (continuity broken)")
	}

	// Fetch through the OUTER daemon: it must merge the inner half in.
	spans, err := outerCli.FetchTrace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, sp := range spans {
		if sp.TraceID != id {
			t.Fatalf("span %s carries trace id %q, want %q", sp.Name, sp.TraceID, id)
		}
		key := sp.Name
		if i := strings.IndexByte(key, ':'); i > 0 {
			key = key[:i]
		}
		count[key]++
	}
	if count["server"] < 2 {
		t.Fatalf("merged trace has %d server spans, want spans from both daemons; spans: %v", count["server"], names(spans))
	}
	if count["shard"] == 0 {
		t.Fatalf("no per-shard spans in merged trace: %v", names(spans))
	}
	if count["auth"] == 0 {
		t.Fatalf("no proof spans in merged trace: %v", names(spans))
	}
	if count["rpc"] == 0 {
		t.Fatalf("no rpc spans from the outer daemon's client: %v", names(spans))
	}
	if count["op"] == 0 {
		t.Fatalf("no plan operator spans in merged trace: %v", names(spans))
	}

	// The full cross-process tree: the CLI recorder's own spans are the
	// roots; everything fetched hangs beneath them. Root duration must
	// bound the self-time its subtree accounts for.
	all := append(rec.Spans(), spans...)
	roots := provtrace.BuildTree(all)
	if len(roots) == 0 {
		t.Fatal("merged spans build no tree")
	}
	for _, root := range roots {
		var childSelf time.Duration
		for _, c := range root.Children {
			childSelf += c.Self
		}
		if root.Span.Dur < childSelf {
			t.Errorf("root %s duration %s < sum of child self-times %s",
				root.Span.Name, root.Span.Dur, childSelf)
		}
		if !strings.HasPrefix(root.Span.Name, "rpc:") {
			t.Errorf("cross-process root is %q, want the CLI's rpc span", root.Span.Name)
		}
	}
}

func names(spans []provtrace.Span) []string {
	out := make([]string, len(spans))
	for i := range spans {
		out[i] = spans[i].Name
	}
	return out
}

// TestFlushContinuity is the satellite regression: a flush issued under a
// traced context must reach a chained daemon under the SAME trace id —
// when Client.Flush took no context it minted a fresh background one and the
// inner daemon's flush was an unrelated trace.
func TestFlushContinuity(t *testing.T) {
	innerCli, innerStore, _ := traceServe(t, provstore.NewMemBackend())
	outerCli, _, _ := traceServe(t, innerCli)

	rec := provtrace.NewRecorder("", "")
	ctx := provtrace.WithRecorder(context.Background(), rec)
	if err := outerCli.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	tr := innerStore.Get(rec.TraceID())
	if tr == nil {
		t.Fatal("inner daemon has no trace under the caller's id: flush continuity broken")
	}
	found := false
	for _, sp := range tr.Spans {
		if sp.Name == "server:flush" {
			found = true
		}
	}
	if !found {
		t.Fatalf("inner half has no server:flush span: %v", names(tr.Spans))
	}
}

// TestTraceEndpoints exercises /v1/traces list + get through the client
// helpers: filtering by min_dur, 404-as-absence, and span payloads.
func TestTraceEndpoints(t *testing.T) {
	cli, _, _ := traceServe(t, provstore.NewMemBackend())
	seedChain(t, cli)

	rec := provtrace.NewRecorder("", "")
	ctx := provtrace.WithRecorder(context.Background(), rec)
	if _, err := cli.Stat(ctx); err != nil {
		t.Fatal(err)
	}

	traces, err := cli.Traces(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("daemon lists no traces after a traced request")
	}
	if len(traces[0].Spans) != 0 {
		t.Fatal("trace list leaks span payloads")
	}
	spans, err := cli.FetchTrace(context.Background(), rec.TraceID())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("stored trace has no spans")
	}
	// Absence is nil/nil, not an error — the read-time merge depends on it.
	spans, err = cli.FetchTrace(context.Background(), "no-such-trace")
	if err != nil || spans != nil {
		t.Fatalf("missing trace = (%v, %v), want (nil, nil)", spans, err)
	}
	// An impossible min_dur filters everything out.
	traces, err = cli.Traces(context.Background(), time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Fatalf("min_dur=1h still lists %d traces", len(traces))
	}
}

// TestTracedResponsesByteIdentical is the satellite byte-identity check,
// run over the same six backend compositions as the cache equivalence
// harness: for each, the raw response bytes of a scan and of a query must
// be identical whether or not the request carries trace headers — tracing
// must never leak into the data path.
func TestTracedResponsesByteIdentical(t *testing.T) {
	for name, openInner := range cacheEquivInners() {
		t.Run(name, func(t *testing.T) {
			st := provtrace.NewStore(64, 0)
			hs := httptest.NewServer(provhttp.NewServer(openInner(t), provhttp.WithTracing(st)))
			t.Cleanup(hs.Close)
			b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			cli := b.(*provhttp.Client)
			t.Cleanup(func() { cli.Close() }) //nolint:errcheck // teardown
			seedChain(t, cli)

			fetch := func(method, p, body string, traced bool) (int, string) {
				t.Helper()
				var rd io.Reader
				if body != "" {
					rd = strings.NewReader(body)
				}
				req, err := http.NewRequest(method, hs.URL+p, rd)
				if err != nil {
					t.Fatal(err)
				}
				if traced {
					req.Header.Set("X-Cpdb-Trace-Id", provtrace.NewTraceID())
					req.Header.Set("X-Cpdb-Span-Id", "deadbeefdeadbeef")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(raw)
			}

			qbody, err := json.Marshal(provplan.MustParse("select where loc>=T/c1 order loc-tid"))
			if err != nil {
				t.Fatal(err)
			}
			for _, probe := range []struct{ method, p, body string }{
				{http.MethodGet, "/v1/scan-all", ""},
				{http.MethodGet, "/v1/scan?" + provstore.ByLoc(path.MustParse("T/c1")).After(0, path.MustParse("T/c1")).Until(1).Values().Encode(), ""},
				{http.MethodPost, "/v1/query", string(qbody)},
			} {
				sc1, plain := fetch(probe.method, probe.p, probe.body, false)
				sc2, traced := fetch(probe.method, probe.p, probe.body, true)
				if sc1 != sc2 || plain != traced {
					t.Errorf("%s %s: traced response differs from untraced\nplain:  %d %q\ntraced: %d %q",
						probe.method, probe.p, sc1, plain, sc2, traced)
				}
			}
		})
	}
}

// TestStatsAndMetricsGatedOnTracing: trace.* stat keys and cpdb_trace_*
// series exist exactly when tracing is on; exemplars render on histogram
// bucket lines of a tracing daemon.
func TestStatsAndMetricsGatedOnTracing(t *testing.T) {
	plainCli, _ := serve(t, provstore.NewMemBackend())
	seedChain(t, plainCli)

	tracedCli, _, addr := traceServe(t, provstore.NewMemBackend())
	seedChain(t, tracedCli)
	recd := provtrace.NewRecorder("", "")
	if _, err := tracedCli.Stat(provtrace.WithRecorder(context.Background(), recd)); err != nil {
		t.Fatal(err)
	}

	for k := range plainStats(t, plainCli) {
		if strings.HasPrefix(k, "trace.") {
			t.Errorf("tracing-off /v1/stats leaks key %s", k)
		}
	}
	keys := plainStats(t, tracedCli)
	if _, ok := keys["trace.stored"]; !ok {
		t.Errorf("tracing-on /v1/stats misses trace.stored: %v", keys)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "cpdb_trace_stored_total") {
		t.Error("/metrics misses cpdb_trace_stored_total on a tracing daemon")
	}
	if !strings.Contains(body, `# {trace_id="`) {
		t.Error("/metrics has no exemplar on any histogram bucket")
	}
}

func plainStats(t *testing.T, cli *provhttp.Client) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + cli.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSlowQueryLogSpanBreakdown: with tracing on, the slow-query warning
// carries a spans=… breakdown naming where the time went.
func TestSlowQueryLogSpanBreakdown(t *testing.T) {
	var logBuf bytes.Buffer
	cli, _, _ := traceServe(t, provstore.NewMemBackend(),
		provhttp.WithRequestLog(slog.New(slog.NewJSONHandler(&logBuf, nil))),
		provhttp.WithSlowQuery(time.Nanosecond))
	seedChain(t, cli)

	if _, err := provplan.Collect(context.Background(), cli,
		provplan.MustParse("select where loc>=T/c1 order loc-tid")); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			continue
		}
		if entry["msg"] == "slow query" {
			found = true
			sp, _ := entry["spans"].(string)
			if !strings.Contains(sp, "=") {
				t.Errorf("slow query line has no span breakdown: %v", entry)
			}
		}
	}
	if !found {
		t.Fatalf("no slow-query line in:\n%s", logBuf.String())
	}
}
