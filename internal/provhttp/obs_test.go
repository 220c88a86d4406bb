package provhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provrepl"
	"repro/internal/provstore"
)

// TestRemoteAnalyzeOneRoundTrip is the tentpole acceptance check: an
// analyze-mode query through the cpdb:// driver returns per-operator stats
// and costs exactly one /v1/query request — the analysis rides the result
// stream as its trailer row, not a second call.
func TestRemoteAnalyzeOneRoundTrip(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, srv := serve(t, inner)
	queryFixture(t, inner)

	q := provplan.MustParse("select where loc>=T")
	q.Analyze = true

	before := srv.Stats()
	res, err := provplan.Collect(ctx, cli, q)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	after := srv.Stats()

	if got := after["endpoint.query"] - before["endpoint.query"]; got != 1 {
		t.Errorf("analyze query cost %d /v1/query round trips, want exactly 1", got)
	}
	if got := after["requests"] - before["requests"]; got != 1 {
		t.Errorf("analyze query cost %d requests total, want exactly 1", got)
	}

	if res.Analysis == nil {
		t.Fatal("remote analyze returned no Analysis")
	}
	if len(res.Analysis.Ops) == 0 {
		t.Fatal("remote Analysis has no operator rows")
	}
	var sawAccess bool
	for _, op := range res.Analysis.Ops {
		if strings.HasPrefix(op.Op, "access:") {
			sawAccess = true
		}
	}
	if !sawAccess {
		t.Errorf("no access operator in remote analysis: %+v", res.Analysis.Ops)
	}
	if res.Analysis.Scanned == 0 {
		t.Error("remote analysis scanned = 0")
	}

	// Plain remote queries must not grow an analysis.
	res, err = provplan.Collect(ctx, cli, provplan.MustParse("select where loc>=T"))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if res.Analysis != nil {
		t.Fatalf("Analysis = %+v without Analyze", res.Analysis)
	}
}

// TestTraceIDCorrelation forces a request failure and requires the same
// trace id in the client-side error and the server's request log line.
func TestTraceIDCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	srv := provhttp.NewServer(provstore.NewMemBackend(),
		provhttp.WithRequestLog(slog.New(slog.NewJSONHandler(&logBuf, nil))))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := b.(*provhttp.Client)
	defer cli.Close()

	_, err = provplan.Collect(context.Background(), cli, &provplan.Query{Op: "bogus"})
	if err == nil {
		t.Fatal("bogus query succeeded")
	}
	m := regexp.MustCompile(`\[trace ([0-9a-f]{16})\]`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("client error carries no trace id: %v", err)
	}
	trace := m[1]

	var re *provhttp.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RemoteError", err)
	}
	if re.Trace != trace {
		t.Errorf("RemoteError.Trace = %q, message says %q", re.Trace, trace)
	}

	// A scan's log line says which scan: the endpoint label alone no longer
	// does.
	if _, err := provstore.CollectScan(cli.Scan(context.Background(), provstore.ByTid(7))); err != nil {
		t.Fatal(err)
	}

	found, scanLogged := false, false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		scanLogged = scanLogged || entry["endpoint"] == "scan" && entry["scan"] == "scan-tid(7)"
		if entry["trace"] == trace {
			found = true
			if entry["msg"] != "request failed" {
				t.Errorf("log line for trace %s has msg %q, want \"request failed\"", trace, entry["msg"])
			}
		}
	}
	if !found {
		t.Errorf("no server log line with trace %s in:\n%s", trace, logBuf.String())
	}
	if !scanLogged {
		t.Errorf("no scan log line with scan=scan-tid(7) in:\n%s", logBuf.String())
	}
}

// TestSlowQueryLog sets a zero-ish slow-query threshold so every /v1/query
// trips it, and requires the log line to carry the parsed query text.
func TestSlowQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	srv := provhttp.NewServer(provstore.NewMemBackend(),
		provhttp.WithRequestLog(slog.New(slog.NewJSONHandler(&logBuf, nil))),
		provhttp.WithSlowQuery(time.Nanosecond))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := b.(*provhttp.Client)
	defer cli.Close()

	if _, err := provplan.Collect(context.Background(), cli, provplan.MustParse("select where tid>=2")); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if entry["msg"] == "slow query" {
			found = true
			if entry["query"] != "select where tid>=2" {
				t.Errorf("slow query line carries query %q", entry["query"])
			}
		}
	}
	if !found {
		t.Errorf("no slow-query line in:\n%s", logBuf.String())
	}
}

// TestMetricsEndpoint drives traffic through the server and checks the
// Prometheus exposition: right content type, a latency histogram series per
// exercised endpoint, and counters carrying the _total suffix.
func TestMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, _ := serve(t, inner)
	queryFixture(t, inner)

	if _, err := provplan.Collect(ctx, cli, provplan.MustParse("select")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + cli.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		`cpdb_http_requests_total `,
		`cpdb_http_endpoint_requests_total{endpoint="query"} `,
		`cpdb_http_request_duration_seconds_bucket{endpoint="query",le="`,
		`cpdb_http_request_duration_seconds_bucket{endpoint="stat",le="`,
		`cpdb_http_stream_records_bucket{endpoint="query",le="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// /metrics itself must not appear as an endpoint: instrumenting it
	// would grow /v1/stats a new key and break byte-compatibility.
	if strings.Contains(text, `endpoint="metrics"`) {
		t.Error("/metrics instrumented itself")
	}
}

// scrape reads a daemon's /metrics and /v1/stats back to back and returns
// the exposition's samples by series (name plus label set) — failing the
// test on a series that appears twice — and the flat stats.
func scrape(t *testing.T, addr string) (samples map[string]string, stats map[string]int64) {
	t.Helper()
	get := func(p string) []byte {
		resp, err := http.Get("http://" + addr + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test read
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	samples = make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(get("/metrics"))), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		if _, dup := samples[series]; dup {
			t.Errorf("/metrics carries %s twice", series)
		}
		samples[series] = value
	}
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	return samples, stats
}

// TestChainExposesInnerRegistries: a daemon reports the registries of every
// store of its chain, however the chain is composed — the verified://
// shards of a sharded store, a rel:// store behind a batching layer, the
// verified primary and the replica of a replicated store. Each named /v1/stats
// key is there, and the typed /metrics series is the number it shows.
func TestChainExposesInnerRegistries(t *testing.T) {
	verified := url.QueryEscape("verified://?inner=mem://")
	openDSN := func(dsn string) func(*testing.T) provstore.Backend {
		return func(t *testing.T) provstore.Backend {
			b, err := provstore.OpenDSN(dsn)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	for _, c := range []struct {
		name   string
		open   func(*testing.T) provstore.Backend
		query  string
		series map[string]string // /metrics series → the /v1/stats key it equals ("": it need only be there)
	}{
		{"sharded", openDSN("sharded://?shard=" + verified + "&shard=" + verified), "trace T/c3", map[string]string{
			"cpdb_mem_recs_examined_total":           "mem.recs_examined",
			"cpdb_auth_root_size":                    "auth.root_size",
			"cpdb_auth_prove_duration_seconds_count": "",
		}},
		{"batching", func(t *testing.T) provstore.Backend {
			return provstore.NewBatching(openDSN("rel://"+filepath.ToSlash(t.TempDir())+"/prov.db?create=1&durable=1")(t), 4)
		}, "select", map[string]string{
			"cpdb_rel_rows_decoded_total": "rel.rows_decoded",
			"cpdb_rel_wal_fsyncs_total":   "rel.wal.fsyncs",
			"cpdb_rel_bufpool_hits_total": "rel.bufpool.hits",
		}},
		// An hourly poll and WaitForReplicas leave the appliers idle: the
		// one pass the fixture's append woke is over before either scrape.
		{"replicated", openDSN("replicated://?primary=" + verified + "&replica=mem://&poll=1h"), "trace T/c3", map[string]string{
			"cpdb_mem_recs_examined_total": "mem.recs_examined",
			"cpdb_auth_root_size":          "auth.root_size",
			"cpdb_repl_replicas":           "repl.replicas",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			inner := c.open(t)
			defer provstore.Close(inner) //nolint:errcheck // teardown
			quiesce := func() {
				if rb, ok := inner.(*provrepl.ReplicatedBackend); ok {
					wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
					defer cancel()
					if err := rb.WaitForReplicas(wctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			quiesce()
			cli, _ := serve(t, inner)
			queryFixture(t, cli)
			if _, err := provplan.Collect(ctx, cli, provplan.MustParse(c.query)); err != nil {
				t.Fatal(err)
			}
			quiesce()

			samples, stats := scrape(t, cli.Addr())
			for series, key := range c.series {
				if key == "" {
					if _, ok := samples[series]; !ok {
						t.Errorf("/metrics lacks %s", series)
					}
					continue
				}
				if stats[key] == 0 {
					t.Errorf("/v1/stats lacks %s: %v", key, stats)
				}
				if got, want := samples[series], strconv.FormatInt(stats[key], 10); got != want {
					t.Errorf("/metrics %s = %q, /v1/stats %s = %s", series, got, key, want)
				}
			}
		})
	}
}
