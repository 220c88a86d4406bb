package provhttp_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// queryFixture loads a small multi-database history with copies, deletes
// and a cross-database step.
func queryFixture(t *testing.T, b provstore.Backend) {
	t.Helper()
	recs := []provstore.Record{
		rec(1, provstore.OpInsert, "S/a", ""),
		rec(1, provstore.OpInsert, "S/a/x", ""),
		rec(2, provstore.OpCopy, "T/c1", "S/a"),
		rec(3, provstore.OpCopy, "T/c2", "T/c1"),
		rec(4, provstore.OpInsert, "T/c2/y", ""),
		rec(5, provstore.OpCopy, "T/c3", "T/c2"),
		rec(6, provstore.OpDelete, "T/c1", ""),
	}
	if err := b.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
}

// TestQueryEndpointEquivalence runs every query kind against a loopback
// service (through the client's ExecPlan delegation) and against the inner
// store directly, and requires identical answers.
func TestQueryEndpointEquivalence(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, _ := serve(t, inner)
	queryFixture(t, inner)

	texts := []string{
		"select",
		"select where tid>=3 and op=C",
		"select where loc>=T order loc-tid",
		"select where loc<=T/c2/y",
		"select count where op=C",
		"select min-tid where loc>=T",
		"select where op=C join src-loc (select where op=I)",
		"trace T/c3",
		"trace T/c3 asof 4",
		"src T/c2/y",
		"src T/c3",
		"hist T/c3",
		"mod T/c2",
		"mod S/a asof 1",
	}
	for _, text := range texts {
		q := provplan.MustParse(text)
		want, err := provplan.Collect(ctx, inner, q)
		if err != nil {
			t.Fatalf("local %q: %v", text, err)
		}
		got, err := provplan.Collect(ctx, cli, q)
		if err != nil {
			t.Fatalf("remote %q: %v", text, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\nremote %+v\nlocal  %+v", text, got, want)
		}
	}
}

// TestQuerySingleRoundTrip pins the endpoint's reason to exist: an entire
// remote trace — every chain step — is one POST /v1/query, with no scan or
// point round trips behind it.
func TestQuerySingleRoundTrip(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, srv := serve(t, inner)
	queryFixture(t, inner)

	before := srv.Stats()
	res, err := provplan.Collect(ctx, cli, provplan.MustParse("trace T/c3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events) != 3 || res.Trace.Origin != provplan.OriginExternal || res.Trace.External.String() != "S/a" {
		t.Fatalf("trace = %+v", res.Trace)
	}
	after := srv.Stats()
	if d := after["requests"] - before["requests"]; d != 1 {
		t.Errorf("trace cost %d round trips, want exactly 1", d)
	}
	if d := after["endpoint.query"] - before["endpoint.query"]; d != 1 {
		t.Errorf("endpoint.query delta = %d, want 1", d)
	}
	for _, e := range []string{"scan", "lookup", "ancestor", "stat"} {
		if d := after["endpoint."+e] - before["endpoint."+e]; d != 0 {
			t.Errorf("endpoint.%s delta = %d, want 0", e, d)
		}
	}
}

// TestQueryBadPlanIsClientError: a query that fails compilation is a 400,
// not a stream.
func TestQueryBadPlanIsClientError(t *testing.T) {
	inner := provstore.NewMemBackend()
	cli, srv := serve(t, inner)
	_, err := provplan.Collect(context.Background(), cli, &provplan.Query{Op: "frobnicate"})
	if err == nil {
		t.Fatal("expected error for unknown query kind")
	}
	if srv.Stats()["errors"] == 0 {
		t.Error("server did not count the failed query")
	}
}

// TestQueryStreamEarlyBreak: breaking out of a remote row stream closes the
// response body without draining it.
func TestQueryStreamEarlyBreak(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, _ := serve(t, inner)
	queryFixture(t, inner)

	n := 0
	for _, err := range cli.ExecPlan(ctx, provplan.MustParse("select")) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("pulled %d rows, want 2", n)
	}
	// The client stays usable on its pooled connections afterwards.
	if _, err := cli.Stat(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRequestContentTypes: the client labels each request body by what it
// is — an append's record frames as frames, a query as the one JSON
// document it is — and a request without a body carries no Content-Type.
func TestRequestContentTypes(t *testing.T) {
	ctx := context.Background()
	srv := provhttp.NewServer(provstore.NewMemBackend())
	var mu sync.Mutex
	got := map[string]string{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got[r.Method+" "+r.URL.Path] = r.Header.Get("Content-Type")
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	cli, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { provstore.Close(cli) })

	queryFixture(t, cli)
	if _, err := provplan.Collect(ctx, cli, provplan.MustParse("trace T/c3")); err != nil {
		t.Fatal(err)
	}
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.All())); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"POST /v1/append": "application/x-cpdb-frames",
		"POST /v1/query":  "application/json",
		"GET /v1/scan":    "",
	}
	mu.Lock()
	defer mu.Unlock()
	for req, ct := range want {
		if seen, ok := got[req]; !ok {
			t.Errorf("no %s request in %v", req, got)
		} else if seen != ct {
			t.Errorf("%s: Content-Type %q, want %q", req, seen, ct)
		}
	}
}
