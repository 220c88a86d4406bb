package provhttp_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provobs"
	"repro/internal/provplan"
	"repro/internal/provrepl"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// updateStatsGolden rewrites testdata/stats_surface_golden.txt. The file
// pins the operator-facing stats surface — the key set and values of
// /v1/stats and the shutdown dump rendered from it — across refactors of the
// telemetry plumbing, so regenerate it only for a deliberate change of that
// surface.
var updateStatsGolden = flag.Bool("update-stats-golden", false, "rewrite testdata/stats_surface_golden.txt")

// statsChain is one served backend chain of the golden: a DSN template
// (%DIR% is a fresh directory, %UP% a second daemon over mem://). shipLag is
// how many transactions the replicas of a replicated chain trail an
// unflushed primary by: verified shipping carries sealed transactions only,
// and an append seals the one before it.
type statsChain struct {
	name    string
	dsn     string
	shipLag int64
}

var statsChains = []statsChain{
	{name: "mem", dsn: "mem://"},
	{name: "mem-sharded", dsn: "mem://?shards=4"},
	{name: "rel-durable", dsn: "rel://%DIR%/prov.db?create=1&durable=1"},
	{name: "verified", dsn: "verified://?inner=mem://"},
	{name: "replicated", dsn: "replicated://?primary=mem://&replica=mem://&replica=mem://&poll=1h"},
	{name: "replicated-verify", dsn: "replicated://?primary=" + url.QueryEscape("verified://?inner=mem://") +
		"&replica=mem://&replica=mem://&poll=1h&verify=1", shipLag: 1},
	{name: "chained-cache", dsn: "cpdb://%UP%?cache=1mb"},
}

// statsScript drives the fixed request sequence of the golden through cli
// against the daemon at addr, then returns the decoded GET /v1/stats body.
func statsScript(t *testing.T, chain statsChain, srv *provhttp.Server, cli *provhttp.Client, addr string) map[string]int64 {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// settle waits until both replicas of a replicated chain have applied
	// everything acknowledged or flushed, and checks that this reached
	// transaction tid. The chains poll hourly, so every applier pass is one
	// an append or the flush woke, and it is over before the next request:
	// the passes, and so the mem.* and auth.* values of the primary they
	// read, are a function of the script alone.
	settle := func(tid int64) {
		t.Helper()
		rb, ok := srv.Inner().(*provrepl.ReplicatedBackend)
		if !ok {
			return
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		must(rb.WaitForReplicas(wctx))
		if st := srv.Stats(); st["repl.applied_tid.0"] != tid || st["repl.applied_tid.1"] != tid {
			t.Fatalf("%s: replicas did not apply transaction %d: %v", chain.name, tid, st)
		}
	}
	settle(0) // the appliers' first passes, over an empty primary
	for _, txn := range [][]provstore.Record{
		{rec(1, provstore.OpInsert, "S/a", ""), rec(1, provstore.OpInsert, "S/a/x", ""), rec(1, provstore.OpInsert, "S/b", "")},
		{rec(2, provstore.OpCopy, "T/c1", "S/a"), rec(2, provstore.OpCopy, "T/c2", "S/b")},
		{rec(3, provstore.OpCopy, "T/c3", "T/c1")},
		{rec(4, provstore.OpInsert, "T/c2/y", ""), rec(4, provstore.OpDelete, "T/c1", "")},
	} {
		must(cli.Append(ctx, txn))
		settle(txn[0].Tid - chain.shipLag)
	}
	resp, err := http.Post("http://"+addr+"/v1/flush", "", nil)
	must(err)
	resp.Body.Close() //nolint:errcheck // test read
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /v1/flush: %s", resp.Status)
	}
	settle(4)

	for _, at := range []struct {
		tid int64
		loc string
	}{{2, "T/c1"}, {2, "T/c1"}, {9, "T/nope"}} {
		_, _, err := provstore.Lookup(ctx, cli, at.tid, path.MustParse(at.loc))
		must(err)
	}
	_, _, err = provstore.NearestAncestor(ctx, cli, 3, path.MustParse("T/c3/deep/er"))
	must(err)
	for _, spec := range []provstore.ScanSpec{
		provstore.ByTid(1), provstore.ByPrefix(path.MustParse("T/c2")), provstore.All(),
	} {
		_, err := provstore.CollectScan(cli.Scan(ctx, spec))
		must(err)
	}
	for _, text := range []string{"trace T/c3", "trace T/c3", "mod T/c2", "select count where op=C"} {
		_, err := provplan.Collect(ctx, cli, provplan.MustParse(text))
		must(err)
	}
	_, err = cli.Stat(ctx)
	must(err)
	if _, ok := srv.Inner().(*provauth.AuthBackend); ok {
		_, err := cli.Root(ctx)
		must(err)
		c2 := path.MustParse("T/c2")
		for _, err := range cli.ScanProven(ctx, provstore.ByLoc(c2).After(1, c2).Until(2)) {
			must(err)
		}
	}

	resp, err = http.Get("http://" + addr + "/v1/stats")
	must(err)
	defer resp.Body.Close() //nolint:errcheck // test read
	var stats map[string]int64
	must(json.NewDecoder(resp.Body).Decode(&stats))
	return stats
}

// TestStatsSurfaceGolden pins what an operator reads off a daemon — the
// sorted key set of GET /v1/stats, the value of every key after a fixed
// script, and the shutdown dump lines of the same snapshot — for each served
// chain, with tracing off and on.
func TestStatsSurfaceGolden(t *testing.T) {
	var got strings.Builder
	for _, chain := range statsChains {
		for _, tracing := range []bool{false, true} {
			up := httptest.NewServer(provhttp.NewServer(provstore.NewMemBackend()))
			dsn := strings.NewReplacer("%DIR%", filepath.ToSlash(t.TempDir()),
				"%UP%", up.Listener.Addr().String()).Replace(chain.dsn)
			inner, err := provstore.OpenDSN(dsn)
			if err != nil {
				t.Fatalf("%s: %v", chain.name, err)
			}
			var opts []provhttp.ServerOption
			if tracing {
				opts = append(opts, provhttp.WithTracing(provtrace.NewStore(64, 0)))
			}
			srv := provhttp.NewServer(inner, opts...)
			hs := httptest.NewServer(srv)
			addr := hs.Listener.Addr().String()
			cli := provhttp.NewClient(addr)

			stats := statsScript(t, chain, srv, cli, addr)
			keys := make([]string, 0, len(stats))
			for k := range stats {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			fmt.Fprintf(&got, "== %s tracing=%v\nkeys: %s\n", chain.name, tracing, strings.Join(keys, " "))
			for _, k := range keys {
				fmt.Fprintf(&got, "%s=%d\n", k, stats[k])
			}
			fmt.Fprintf(&got, "dump:\n")
			for _, line := range provobs.DumpLines(stats) {
				fmt.Fprintf(&got, "  %s\n", line)
			}

			cli.Close() //nolint:errcheck // loopback teardown
			hs.Close()
			if err := provstore.Close(inner); err != nil {
				t.Errorf("%s: close: %v", chain.name, err)
			}
			up.Close()
		}
	}

	const file = "testdata/stats_surface_golden.txt"
	if *updateStatsGolden {
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "(end of golden file)"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("stats surface differs from %s at line %d:\n got: %s\nwant: %s", file, i+1, gl[i], w)
			}
		}
		t.Fatalf("stats surface differs from %s: golden file has %d more lines", file, len(wl)-len(gl))
	}
}
