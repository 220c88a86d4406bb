// Command cpdbd is the CPDB provenance daemon: it opens a provenance store
// by DSN and serves it over HTTP to any number of cpdb:// clients — the
// deployable form of the provenance database P in the paper's architecture
// (Figure 2), where the curation tools reached P over the network (JDBC to
// MySQL, SOAP to Timber).
//
// Usage:
//
//	cpdbd -addr 127.0.0.1:7070 -backend "mem://?shards=8"
//	cpdbd -addr :7070 -backend "rel://prov.db?create=1&durable=1"
//
// Sessions then reach the store by DSN from any process:
//
//	cpdb -demo -backend cpdb://127.0.0.1:7070 -query "hist T/c2/y"
//
// The daemon answers one HTTP round trip per Backend method (see
// internal/provhttp for the wire contract), and executes whole declarative
// queries server-side at POST /v1/query — a client's Session.Plan, or the
// classic Trace/Src/Hist/Mod methods, ship one plan and stream the rows
// back, so a multi-step trace over the network costs one round trip:
//
//	cpdb -demo -backend cpdb://127.0.0.1:7070 -query "plan select where loc>=T/c2 and op=C"
//
// Observability: expvar-style counters at /v1/stats, Prometheus text
// exposition at GET /metrics (per-endpoint request and latency histograms,
// stream sizes, and the repl.*/auth.* gauges of whatever chain -backend
// names), a readiness probe at /v1/ping, and one structured log line per
// request carrying the client-stamped X-Cpdb-Trace-Id — the same id a
// failing client sees in its error, so one grep correlates both sides.
// -slow-query logs the parsed query text of /v1/query requests over the
// threshold; -pprof mounts the net/http/pprof handlers under /debug/pprof/.
//
// Caching (off by default): -cache-bytes bounds a server-side page cache
// over limit-bounded /v1/scan pages — validity is horizon-keyed, so an
// append invalidates simply by moving MaxTid — and -plan-cache caches up
// to N compiled /v1/query plans by canonical query text. Both report
// cpdb_cache_{hits,misses,evictions}_total and cpdb_cache_{bytes,entries}
// at /metrics and cache.page.*/cache.plan.* counters at /v1/stats and in
// the shutdown dump. Clients opt into their own result cache per DSN with
// cpdb://host:port?cache=SIZE (rejected together with verify=pin).
//
// Tracing (off by default): -trace-buffer N keeps the last N request
// traces in a ring, each a span tree covering every layer the request
// crossed — server handler, plan operators, shard scatter legs, proof
// builds, cache hits, downstream rpc hops. A request arriving with
// X-Cpdb-Span-Id continues the caller's trace, so chained daemons yield
// one tree, assembled at read time by GET /v1/traces/{id} on the
// outermost daemon (GET /v1/traces lists summaries; ?min_dur filters).
// Every finished trace is stored (the ring bounds memory); each tags its
// /metrics latency bucket with a {trace_id} exemplar, and -slow-query
// lines add the top-3 spans by self time. Inspect with cpdb -query "traces [ID]".
//
// Limits: a client must finish its request header within
// provhttp.ReadHeaderTimeout and an idle keep-alive connection is closed
// after provhttp.IdleTimeout; a POST /v1/append body over
// provhttp.MaxAppendBytes, or a POST /v1/query body over
// provhttp.MaxQueryBytes, is refused whole with 413 and counted
// (rejected in /v1/stats, cpdb_http_rejected_total at /metrics). Responses
// are not timed: a drain is a long one.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests drain (bounded by -shutdown-timeout), and
// the store's group-commit buffers are flushed and its files released
// before exit. The final stats dump asserts cursors_open is 0 — anything
// else means a scan stream leaked past the drain.
//
// Because the cpdb:// driver itself is linked in, -backend may name another
// daemon (cpdb://other:7070), chaining services — useful for fronting a
// remote store with a local batching tier. The replicated:// driver is
// linked in too, so one daemon can serve a replicated store —
//
//	cpdbd -addr :7070 -backend "replicated://?primary=rel%3A%2F%2Fprov.db%3Fcreate%3D1%26durable%3D1&replica=mem://&read=any"
//
// — with per-replica lag and applied-tid gauges (repl.lag.<i>,
// repl.applied_tid.<i>) merged into /v1/stats and always printed by the
// shutdown dump, zero or not.
//
// The verified:// driver is linked in as well: -backend
// "verified://?inner=DSN" maintains a Merkle history tree over the store
// and turns on the proof-serving endpoints (/v1/root, /v1/prove,
// /v1/consistency, plus proofs=1 on the scan and query streams) that
// ?verify=pin clients check answers against. Its auth.* gauges
// (auth.root_tid, auth.proofs_served, auth.verify_failures) join the
// shutdown dump the same way the repl.* gauges do, zero or not.
//
// A rel:// store reports the work its engine has done since open —
// rel.bufpool.hits, rel.bufpool.misses (pages fetched) and
// rel.rows_decoded — in /v1/stats and as cpdb_rel_*_total on /metrics;
// the difference of two readings is what the requests in between cost
// below the Backend interface. Every layer reports this way: /v1/stats, the
// shutdown dump and /metrics are three renderings of one list, the
// registries of every store of the served chain (provstore.Registries), so
// they agree whatever the chain's shape.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/provauth" // registers the verified:// backend driver
	"repro/internal/provhttp"
	"repro/internal/provobs"
	_ "repro/internal/provrepl" // registers the replicated:// backend driver
	"repro/internal/provstore"
	"repro/internal/provtrace"
	_ "repro/internal/relprov" // registers the rel:// backend driver
)

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:7070", "listen address (host:port)")
		backendDSN      = flag.String("backend", "mem://", `provenance store DSN to serve, e.g. "mem://?shards=8" or "rel://prov.db?create=1&durable=1"`)
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "how long to drain in-flight requests at shutdown")
		slowQuery       = flag.Duration("slow-query", 0, "log the query text of /v1/query requests slower than this (0 = off)")
		pprofOn         = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
		cacheBytes      = flag.String("cache-bytes", "", `server-side scan page cache budget, e.g. "16mb" (empty or 0 = off)`)
		planCache       = flag.Int("plan-cache", 0, "cache up to N compiled /v1/query plans (0 = off)")
		traceBuffer     = flag.Int("trace-buffer", 0, "keep the last N request traces in memory, served at /v1/traces (0 = tracing off)")
	)
	flag.Parse()

	pageBytes := int64(0)
	if *cacheBytes != "" && *cacheBytes != "0" {
		n, err := provhttp.ParseSizeBytes(*cacheBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpdbd: -cache-bytes:", err)
			os.Exit(1)
		}
		pageBytes = n
	}

	if err := run(*addr, *backendDSN, *shutdownTimeout, *slowQuery, *pprofOn, pageBytes, *planCache, *traceBuffer); err != nil {
		fmt.Fprintln(os.Stderr, "cpdbd:", err)
		os.Exit(1)
	}
}

func run(addr, backendDSN string, shutdownTimeout, slowQuery time.Duration, pprofOn bool, pageBytes int64, planEntries, traceBuffer int) error {
	// The trace store must exist before the backend opens: background work
	// the backend starts at open time (a replicated store's appliers) roots
	// its traces at the process-wide default sink.
	var traces *provtrace.Store
	if traceBuffer > 0 {
		traces = provtrace.NewStore(traceBuffer, slowQuery)
		provtrace.SetDefault(traces)
	}
	backend, err := provstore.OpenDSN(backendDSN)
	if err != nil {
		return err
	}
	opts := []provhttp.ServerOption{
		provhttp.WithRequestLog(slog.New(slog.NewTextHandler(os.Stderr, nil))),
		provhttp.WithSlowQuery(slowQuery),
		provhttp.WithPageCache(pageBytes),
		provhttp.WithPlanCache(planEntries),
	}
	if traces != nil {
		opts = append(opts, provhttp.WithTracing(traces))
	}
	srv := provhttp.NewServer(backend, opts...)

	var handler http.Handler = srv
	if pprofOn {
		// The profiling surface stays off the service mux: it only exists
		// when asked for, under its standard prefix.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		provstore.Close(backend) //nolint:errcheck // open files released on the way out
		return err
	}
	log.Printf("cpdbd: serving %s at cpdb://%s", backendDSN, ln.Addr())
	if pprofOn {
		log.Printf("cpdbd: pprof at http://%s/debug/pprof/", ln.Addr())
	}
	if traces != nil {
		log.Printf("cpdbd: tracing last %d traces at http://%s/v1/traces", traceBuffer, ln.Addr())
	}

	hs := provhttp.NewHTTPServer(handler)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		provstore.Close(backend) //nolint:errcheck // serve already failed
		return err
	case sig := <-sigc:
		log.Printf("cpdbd: %v: draining (up to %s)", sig, shutdownTimeout)
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush the store's group-commit buffers and release its files. A drain
	// overrunning the timeout is cut off so a stuck client cannot block the
	// flush that makes acknowledged records durable.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("cpdbd: drain incomplete (%v), closing connections", err)
		hs.Close() //nolint:errcheck // forced close after failed drain
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("cpdbd: serve: %v", err)
	}
	if err := provstore.Close(backend); err != nil {
		return fmt.Errorf("flushing store at shutdown: %w", err)
	}
	stats := srv.Stats()
	logStats(stats)
	// After a full drain every scan stream must have finished; a cursor
	// still open names a leak, not traffic.
	if n := stats["cursors_open"]; n != 0 {
		log.Printf("cpdbd: WARNING: gauge cursors_open=%d after drain — a scan stream leaked", n)
	}
	log.Printf("cpdbd: store flushed and closed")
	return nil
}

// logStats prints the final counter snapshot in a stable order — the same
// elision rules /v1/stats consumers rely on (see provobs.DumpLines): zero
// counters drop except cursors_open, the leak gauge, and the repl.*/auth.*
// gauges, where zero is exactly the interesting value (repl.lag.<i>=0 at
// shutdown means every replica drained; auth.verify_failures=0 means no
// proof request ever named a record outside the log).
func logStats(stats map[string]int64) {
	for _, line := range provobs.DumpLines(stats) {
		log.Printf("cpdbd: stat %s", line)
	}
}
