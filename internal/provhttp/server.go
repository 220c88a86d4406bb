package provhttp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provcache"
	"repro/internal/provobs"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// streamFlushEvery is the line interval at which a row stream flushes the
// response writer and checks for a client that has gone away.
const streamFlushEvery = 256

// A Server publishes a provstore.Backend over HTTP — the daemon side of the
// cpdb:// scheme. It is an http.Handler; cmd/cpdbd mounts one on a listener,
// and tests mount one on a loopback httptest server.
//
// Every handler runs its backend calls under the request context, so a
// client hanging up (or cancelling its context) cancels the backend work it
// triggered — a sharded scatter-gather stops between waves, exactly as it
// would for an in-process caller.
//
// The Server does not own the inner backend's lifecycle: Flush is exposed as
// an endpoint (a remote Session.Close flushes through it), but closing the
// store belongs to the daemon's shutdown step, after the listener has
// drained — other clients may still be writing.
type Server struct {
	inner     provstore.Backend
	auth      provauth.Authority // nil unless inner is an authenticated store
	mux       *http.ServeMux
	stats     serverStats
	log       *slog.Logger  // nil: no request log
	slowQuery time.Duration // 0: no slow-query logging

	// pageCache shares encoded, limit-bounded /v1/scan pages across
	// concurrent cursors at the same horizon and keyset position (nil: off).
	// planCache shares compiled /v1/query plans by canonical query text
	// (nil: off). Both register their cpdb_cache_* series on the server
	// registry, so /v1/stats, /metrics and the shutdown dump carry them.
	pageCache *provcache.Cache
	planCache *provcache.Cache

	// traces is the in-daemon span store (nil: tracing off). When set, each
	// request records a span tree — continued from the caller's trace when
	// the request carries X-Cpdb-Span-Id — served back by /v1/traces.
	traces *provtrace.Store
}

// A ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithRequestLog makes the server emit one structured log line per request:
// endpoint, trace id, status, records, bytes, duration, and the error for
// failed requests.
func WithRequestLog(log *slog.Logger) ServerOption {
	return func(s *Server) { s.log = log }
}

// WithSlowQuery sets the threshold above which a /v1/query request is logged
// at warning level with its parsed query text. Needs WithRequestLog.
func WithSlowQuery(d time.Duration) ServerOption {
	return func(s *Server) { s.slowQuery = d }
}

// WithPageCache bounds a server-side scan page cache to maxBytes (≤ 0:
// off) — the -cache-bytes daemon flag. Limit-bounded /v1/scan pages are
// cached as their frames, keyed by (current MaxTid, scan with its keyset
// position, limit): concurrent paging cursors at the same horizon share one
// store scan and one encoding, whichever form they ask for, and any append
// moves the horizon so stale pages are simply never keyed again. Unbounded
// (no-limit) drains and proofs=1 streams always bypass it.
func WithPageCache(maxBytes int64) ServerOption {
	return func(s *Server) {
		if maxBytes > 0 {
			s.pageCache = provcache.New(maxBytes, provcache.NewMetrics(s.stats.reg, "page"))
		}
	}
}

// WithPlanCache caches up to n compiled plans on the /v1/query path
// (≤ 0: off) — the -plan-cache daemon flag. Plans are immutable and safe
// for concurrent use (each Rows call is an independent execution), so one
// compiled plan serves every request with the same canonical Query.String()
// against this server's backend. Analyze queries bypass the cache: their
// text form is the same as the plain query's, and they are diagnostics,
// not a hot path.
func WithPlanCache(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.planCache = provcache.New(int64(n), provcache.NewMetrics(s.stats.reg, "plan"))
		}
	}
}

// WithTracing gives the server an in-daemon trace store — the -trace-buffer
// daemon flag. Every request then records a span tree: the server's root
// span, one span per backend hop beneath it, and (for /v1/query) the plan's
// operator spans. Requests stamped with X-Cpdb-Span-Id continue the
// caller's trace. Every trace is stored and tags the endpoint's latency
// histogram bucket with a trace-id exemplar, so an outlier bucket on
// /metrics links straight to a representative trace.
func WithTracing(st *provtrace.Store) ServerOption {
	return func(s *Server) { s.traces = st }
}

// serverStats holds the server's provobs metrics. Every counter and gauge
// doubles, via its stat key, as one entry of the legacy /v1/stats map, so
// that JSON stays byte-compatible with what it was before the typed
// registry existed; the histograms (per-endpoint latency, per-stream record
// counts) are new and only appear in the /metrics exposition. cursorsOpen
// counts scan streams currently being written — a cursor held open by a
// stalled client shows up here, and a non-zero value at shutdown means a
// cursor leaked.
type serverStats struct {
	reg             *provobs.Registry
	requests        *provobs.Counter
	errors          *provobs.Counter
	recordsAppended *provobs.Counter
	recordsStreamed *provobs.Counter
	rejected        *provobs.Counter
	cursorsOpen     *provobs.Gauge
	byEndpoint      map[string]*provobs.Counter
	latency         map[string]*provobs.Histogram // request wall time, ns
	streamed        map[string]*provobs.Histogram // records per stream response
}

// endpoints is the fixed counter key set (one per Backend method + control).
var endpoints = []string{
	"append", "scan", "query",
	"root", "prove", "consistency",
	"stat", "flush", "ping", "stats",
}

// streamEndpoints are the endpoints that answer with a record stream; each
// gets a records-per-response size histogram on top of its latency one.
var streamEndpoints = []string{"scan", "query"}

// Request bodies are decoded into memory before the store sees them, so each
// POST endpoint bounds what it will read; a larger body is refused whole
// with 413. An append is one transaction's records (or one replication
// chunk), a query one plan.
const (
	MaxAppendBytes = 32 << 20
	MaxQueryBytes  = 1 << 20
)

// NewServer returns a handler publishing inner. Compose the inner backend
// however the deployment needs it — provstore.OpenDSN("mem://?shards=8"),
// "rel://prov.db?durable=1", a sharded composite — the server is agnostic.
func NewServer(inner provstore.Backend, opts ...ServerOption) *Server {
	auth, _ := inner.(provauth.Authority)
	reg := provobs.NewRegistry()
	s := &Server{
		inner: inner,
		auth:  auth,
		mux:   http.NewServeMux(),
		stats: serverStats{
			reg: reg,
			requests: reg.Counter("cpdb_http_requests_total",
				"HTTP requests received.", provobs.WithStatKey("requests")),
			errors: reg.Counter("cpdb_http_errors_total",
				"Requests answered with an error status or in-stream error line.",
				provobs.WithStatKey("errors")),
			recordsAppended: reg.Counter("cpdb_http_records_appended_total",
				"Records accepted by /v1/append.", provobs.WithStatKey("records_appended")),
			recordsStreamed: reg.Counter("cpdb_http_records_streamed_total",
				"Records and rows streamed to clients.", provobs.WithStatKey("records_streamed")),
			rejected: reg.Counter("cpdb_http_rejected_total",
				"Requests refused for a body over the endpoint's size limit.",
				provobs.WithStatKey("rejected")),
			cursorsOpen: reg.Gauge("cpdb_http_cursors_open",
				"Scan and query streams currently being written.",
				provobs.WithStatKey("cursors_open")),
			byEndpoint: make(map[string]*provobs.Counter, len(endpoints)),
			latency:    make(map[string]*provobs.Histogram, len(endpoints)),
			streamed:   make(map[string]*provobs.Histogram, len(streamEndpoints)),
		},
	}
	for _, e := range endpoints {
		s.stats.byEndpoint[e] = reg.Counter("cpdb_http_endpoint_requests_total",
			"HTTP requests by endpoint.",
			provobs.WithLabel("endpoint", e), provobs.WithStatKey("endpoint."+e))
		s.stats.latency[e] = reg.Histogram("cpdb_http_request_duration_seconds",
			"Request wall time by endpoint.", provobs.UnitSeconds,
			provobs.WithLabel("endpoint", e))
	}
	for _, e := range streamEndpoints {
		s.stats.streamed[e] = reg.Histogram("cpdb_http_stream_records",
			"Records streamed per scan or query response.", provobs.UnitCount,
			provobs.WithLabel("endpoint", e))
	}
	for _, o := range opts {
		o(s)
	}
	s.handle("POST /v1/append", "append", s.handleAppend)
	s.handle("GET /v1/scan", "scan", s.handleScan)
	s.handle("GET /v1/scan-all", "scan", s.handleScan) // the same handler: kind defaults to all
	s.handle("POST /v1/query", "query", s.handleQuery)
	s.handle("GET /v1/root", "root", s.handleRoot)
	s.handle("GET /v1/prove", "prove", s.handleProve)
	s.handle("GET /v1/consistency", "consistency", s.handleConsistency)
	s.handle("GET /v1/stat", "stat", s.handleStat)
	s.handle("POST /v1/flush", "flush", s.handleFlush)
	s.handle("GET /v1/ping", "ping", s.handlePing)
	s.handle("GET /v1/stats", "stats", s.handleStats)
	// /metrics bypasses s.handle on purpose: instrumenting it would add an
	// endpoint.metrics key to /v1/stats (breaking byte-compatibility) and
	// make every scrape observe itself.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.traces != nil {
		// The trace endpoints exist only when tracing is on, and bypass
		// s.handle for the same /v1/stats byte-compatibility reason as
		// /metrics (and so inspecting traces never files new ones).
		s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
		s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	}
	return s
}

// A daemon's connection timeouts: a client must finish sending its request
// header within ReadHeaderTimeout, and a keep-alive connection with no
// request in flight is closed after IdleTimeout.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server a daemon serves h with, so a peer
// that opens connections and then says nothing cannot hold them forever.
// There is deliberately no WriteTimeout: a drain is one long response.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Inner returns the published backend (the daemon closes it at shutdown).
func (s *Server) Inner() provstore.Backend { return s.inner }

// registries lists every registry this daemon reports from: the server's
// own, the trace store's when tracing is on (so the tracing-off surface
// stays byte-identical), and those of every store of the backend chain.
func (s *Server) registries() []*provobs.Registry {
	regs := []*provobs.Registry{s.stats.reg}
	if s.traces != nil {
		regs = append(regs, s.traces.Registry())
	}
	return append(regs, provstore.Registries(s.inner)...)
}

// Stats returns a snapshot of the server's counters — total requests,
// errors, records appended/streamed, per-endpoint request counts — and the
// backend chain's own (a replicated store's per-replica repl.lag.<i> /
// repl.applied_tid.<i>, say), so a daemon's /v1/stats is the one place to
// watch a composite store's health. The same snapshot feeds the daemon's
// shutdown dump.
func (s *Server) Stats() map[string]int64 { return provobs.Stats(s.registries()...) }

// requestInfo is what a handler reports up to the instrumentation wrapper
// through its obsWriter: how many records the response carried, the parsed
// query text (for /v1/query slow-query logging), the scan a /v1/scan request
// asked for, and the first error.
type requestInfo struct {
	records    int
	hasRecords bool
	query      string
	scan       string
	err        error
}

// obsWriter wraps the response writer so the instrumentation wrapper can see
// status, body bytes, and the handler's requestInfo without any handler
// signature changing. It forwards Flush — scan streams depend on it.
type obsWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	info   requestInfo
}

func (w *obsWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *obsWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// setRecords reports the response's record count to the wrapper.
func setRecords(w http.ResponseWriter, n int) {
	if ow, ok := w.(*obsWriter); ok {
		ow.info.records = n
		ow.info.hasRecords = true
	}
}

// setQueryText reports the parsed query text for slow-query logging.
func setQueryText(w http.ResponseWriter, q string) {
	if ow, ok := w.(*obsWriter); ok {
		ow.info.query = q
	}
}

// setScan reports which scan a /v1/scan request asked for: the kind the
// endpoint label no longer carries, for the request log line.
func setScan(w http.ResponseWriter, spec provstore.ScanSpec) {
	if ow, ok := w.(*obsWriter); ok {
		ow.info.scan = spec.String()
	}
}

// noteErr reports the request's first error to the wrapper (later ones are
// consequences of the first).
func noteErr(w http.ResponseWriter, err error) {
	if ow, ok := w.(*obsWriter); ok && ow.info.err == nil {
		ow.info.err = err
	}
}

// handle registers one instrumented endpoint: the wrapper counts the
// request, threads the client's X-Cpdb-Trace-Id (or a fresh id) through the
// request context into the backend chain, observes wall time and stream
// size into the endpoint's histograms, and emits the structured request log
// line.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	ctr := s.stats.byEndpoint[endpoint]
	lat := s.stats.latency[endpoint]
	sh := s.stats.streamed[endpoint]
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		ctr.Add(1)
		trace := r.Header.Get(headerTraceID)
		if trace == "" {
			trace = provtrace.NewTraceID()
		}
		var rec *provtrace.Recorder
		var rootSp *provtrace.Span
		if s.traces != nil {
			// A caller-stamped span id means another process holds the other
			// half of this trace: parent our root span under it.
			rec = provtrace.NewRecorder(trace, r.Header.Get(headerSpanID))
			ctx := provtrace.WithRecorder(r.Context(), rec)
			ctx, rootSp = provtrace.Start(ctx, "server:"+endpoint)
			r = r.WithContext(ctx)
		} else {
			r = r.WithContext(provtrace.WithTraceID(r.Context(), trace))
		}
		ow := &obsWriter{ResponseWriter: w}
		start := time.Now()
		h(ow, r)
		dur := time.Since(start)
		if rec != nil {
			if ow.info.hasRecords {
				rootSp.SetAttr("records", strconv.Itoa(ow.info.records))
			}
			if ow.status != 0 && ow.status != http.StatusOK {
				rootSp.SetAttr("status", strconv.Itoa(ow.status))
			}
			rootSp.SetErr(ow.info.err)
			rootSp.End()
			// The root span makes the trace non-empty, so the store keeps
			// it: tag this request's latency bucket with it, and /metrics
			// exemplars point at traces the store can serve back.
			s.traces.Finish(rec)
			lat.ObserveExemplar(dur.Nanoseconds(), trace)
		} else {
			lat.Observe(dur.Nanoseconds())
		}
		if sh != nil && ow.info.hasRecords {
			sh.Observe(int64(ow.info.records))
		}
		s.logRequest(endpoint, trace, rec, ow, dur)
	})
}

// logRequest emits the one structured line per request: errors and slow
// queries at warning level (the latter with the parsed query text), the
// rest at info.
func (s *Server) logRequest(endpoint, trace string, rec *provtrace.Recorder, ow *obsWriter, dur time.Duration) {
	if s.log == nil {
		return
	}
	status := ow.status
	if status == 0 {
		status = http.StatusOK
	}
	var buf [9]slog.Attr // the most a line carries; LogAttrs copies them out
	attrs := append(buf[:0],
		slog.String("endpoint", endpoint),
		slog.String("trace", trace),
		slog.Int("status", status),
		slog.Int("records", ow.info.records),
		slog.Int64("bytes", ow.bytes),
		slog.Duration("dur", dur))
	if ow.info.scan != "" {
		attrs = append(attrs, slog.String("scan", ow.info.scan))
	}
	level, msg := slog.LevelInfo, "request"
	switch {
	case ow.info.err != nil:
		level, msg = slog.LevelWarn, "request failed"
		attrs = append(attrs, slog.String("err", ow.info.err.Error()))
	case s.slowQuery > 0 && dur >= s.slowQuery && ow.info.query != "":
		level, msg = slog.LevelWarn, "slow query"
		if rec != nil {
			// Tracing is on, so the slow-query line can say *where* the time
			// went: the top spans by self-time, not just the total.
			attrs = append(attrs, slog.String("spans",
				provtrace.FormatTopSelf(provtrace.TopSelf(rec.Spans(), 3))))
		}
		attrs = append(attrs, slog.String("query", ow.info.query))
	}
	s.log.LogAttrs(context.Background(), level, msg, attrs...)
}

// handleMetrics serves the Prometheus text exposition of the registries
// Stats reads.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", provobs.ContentType)
	provobs.WritePrometheus(w, s.registries()...)
}

// fail counts and writes an error response. A body over its endpoint's
// limit is a 413 whatever status the caller had in mind for a decode error,
// and a proof asked of a record not yet sealed is a 409 (flush to seal it).
func (s *Server) fail(w http.ResponseWriter, err error, status int) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		s.stats.rejected.Add(1)
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, provauth.ErrUnsealed):
		status = http.StatusConflict
	}
	s.stats.errors.Add(1)
	noteErr(w, err)
	writeError(w, err, status)
}

// pathParam parses the named query parameter as a path ("" is the forest
// root, as everywhere else).
func pathParam(r *http.Request, name string) (path.Path, error) {
	p, err := path.Parse(r.URL.Query().Get(name))
	if err != nil {
		return path.Path{}, fmt.Errorf("provhttp: bad %s parameter: %w", name, err)
	}
	return p, nil
}

// tidParam parses the required tid query parameter.
func tidParam(r *http.Request) (int64, error) {
	tid, err := strconv.ParseInt(r.URL.Query().Get("tid"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("provhttp: bad tid parameter %q", r.URL.Query().Get("tid"))
	}
	return tid, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// handleAppend decodes one batch — record frames under their Content-Type,
// NDJSON records otherwise — and appends it in one store call: the wire
// protocol's batched write, one round trip per Append, however many records
// it carries.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, MaxAppendBytes)
	decode := appendNDJSON
	if r.Header.Get("Content-Type") == contentTypeFrames {
		decode = appendFrames
	}
	recs, err := decode(body)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest)
		return
	}
	if err := s.inner.Append(r.Context(), recs); err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return
	}
	s.stats.recordsAppended.Add(int64(len(recs)))
	setRecords(w, len(recs))
	w.WriteHeader(http.StatusNoContent)
}

// appendNDJSON decodes an append body of NDJSON records.
func appendNDJSON(body io.Reader) ([]provstore.Record, error) {
	dec := json.NewDecoder(body)
	var recs []provstore.Record
	for {
		var wr wireRecord
		if err := dec.Decode(&wr); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("provhttp: bad append body: %w", err)
		}
		rec, err := wr.record()
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// appendFrames decodes an append body of record frames, each a record and
// nothing more.
func appendFrames(body io.Reader) ([]provstore.Record, error) {
	br := getFrameReader(body)
	defer putFrameReader(br)
	var (
		recs  []provstore.Record
		frame []byte
		err   error
	)
	for {
		if frame, err = readFrame(br, frame); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("provhttp: bad append body: %w", err)
		}
		if frame[0] != frameRecord {
			return nil, fmt.Errorf("provhttp: bad append body: a frame of kind 0x%02x", frame[0])
		}
		rec, n, err := provstore.DecodeRecord(frame[1:])
		if err == nil && n != len(frame)-1 {
			err = fmt.Errorf("%d bytes after the record", len(frame)-1-n)
		}
		if err != nil {
			return nil, fmt.Errorf("provhttp: bad append body: %w", err)
		}
		recs = append(recs, rec)
	}
}

// authStamp interprets the proofs=1 / since=SIZE request parameters: it
// snapshots the root — the one root every "p" field of the response will
// verify against — and writes the authentication headers (including the
// consistency path from since) before any body byte goes out. It returns
// (nil, true) for a request that wants no proofs, and (nil, false) — with
// the error response already written — for one that asked for what the
// store cannot do: proofs from an unauthenticated store are a 400, never a
// silently unproven stream, and a since= beyond the current tree (a client
// pinned ahead of this server — a rollback) is a 400 too.
func (s *Server) authStamp(w http.ResponseWriter, r *http.Request) (*provauth.Root, bool) {
	q := r.URL.Query()
	switch q.Get("proofs") {
	case "":
		if q.Get("since") != "" {
			s.fail(w, errors.New("provhttp: since requires proofs=1"), http.StatusBadRequest)
			return nil, false
		}
		return nil, true
	case "1":
	default:
		s.fail(w, fmt.Errorf("provhttp: bad proofs parameter %q", q.Get("proofs")), http.StatusBadRequest)
		return nil, false
	}
	if s.auth == nil {
		s.fail(w, errors.New("provhttp: proofs requested from an unauthenticated store (serve a verified:// DSN)"), http.StatusBadRequest)
		return nil, false
	}
	root, err := s.auth.Root(r.Context())
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return nil, false
	}
	audit, ok := s.sinceAudit(w, r, root)
	if !ok {
		return nil, false
	}
	if audit != nil {
		w.Header().Set(headerAuthConsistency, *audit)
	}
	w.Header().Set(headerAuthRoot, root.String())
	return &root, true
}

// A streamWriter is the one encoder of the row stream (see the package
// doc): the scan endpoint, the page-cache fill and the query endpoint hand
// it records and rows, and it owns everything else — the frames they
// become, where an error goes, proof stamping, what limit counts, the flush
// cadence, the terminator and the stream accounting. Lines are encoded as
// the cursor yields them, so the server never materializes a scan; one set
// of buffers is reused throughout. A stream answering a request that did
// not ask for frames is rendered as NDJSON where it leaves (send).
type streamWriter struct {
	s        *Server
	w        http.ResponseWriter
	ctx      context.Context
	flusher  http.Flusher
	out      bytes.Buffer   // frames encoded and not yet sent: a flush interval of them, or the whole page
	body     []byte         // the kind byte and body of the frame being built
	ndjson   bool           // the request did not ask for frames: send renders out as NDJSON lines
	rendered []byte         // ndjson: the lines send rendered last (reused)
	lines    int            // ndjson: the lines rendered so far
	stamp    *provauth.Root // nil: no proofs; else the root each record is proven under
	skip     bool           // proven: a record sealed after the root is passed over, not a failure
	limit    int            // 0: unbounded
	n        int            // lines written
	more     bool           // limit cut the stream with a record still to come
	paged    bool           // lines stay in out, not on the connection
	started  bool           // the 200 header is committed: errors go in band
	dead     bool           // failed, or the client hung up: no terminator
}

// wantsFrames reports whether r asks for the row stream in frames; any
// other request gets it rendered as NDJSON.
func wantsFrames(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), contentTypeFrames)
}

// newStream opens a row stream answering r. Unpaged, the lines go to w at
// the flush cadence; paged, they stay in sw.out and nothing reaches the
// client until the caller sends the finished page, so a failure at any
// line still gets a proper status.
func (s *Server) newStream(w http.ResponseWriter, r *http.Request, stamp *provauth.Root, limit int, paged bool) *streamWriter {
	s.stats.cursorsOpen.Add(1)
	sw := &streamWriter{s: s, w: w, ctx: r.Context(), ndjson: !wantsFrames(r), stamp: stamp, limit: limit, paged: paged}
	if !paged {
		sw.flusher, _ = w.(http.Flusher)
	}
	return sw
}

// record writes one record line and reports whether the stream wants
// another. On a proven stream the record is stamped first. One not yet
// sealed under the stream's root is skipped where the stream is complete as
// of its root — a plan's rows, whose orders put an open transaction's
// records among sealed ones — and fails a scan, whose bound would otherwise
// claim it absent. (A record the log never admitted is a hard error.) Only
// then does limit count it, so a page is full of provable records or is the
// end.
func (sw *streamWriter) record(rec provstore.Record) bool {
	var proof provauth.Proof
	if sw.stamp != nil {
		var err error
		proof, err = sw.s.auth.ProveAt(sw.ctx, rec.Tid, rec.Loc, sw.stamp.Size)
		if sw.skip && errors.Is(err, provauth.ErrUnsealed) {
			return true
		}
		if err != nil {
			sw.fail(err)
			return false
		}
	}
	if sw.limit > 0 && sw.n == sw.limit {
		sw.more = true // this record exists beyond the page
		return false
	}
	sw.body = rec.AppendBinary(append(sw.body[:0], frameRecord))
	if sw.stamp != nil {
		sw.body = proof.AppendBinary(sw.body)
	}
	sw.frame(sw.body)
	return sw.wrote()
}

// row writes one result row of a plan. Record rows are record lines, proof
// and all; derived rows (tids, aggregates, trace steps) are computed answers
// with no leaf to prove — the root header still covers the relation they
// were computed from. Each derived row but the analyze trailer has a binary
// frame, which carries any path; the trailer is a 'j' frame.
func (sw *streamWriter) row(row provplan.Row) bool {
	switch row.Kind {
	case provplan.RowRecord:
		return sw.record(row.Rec)
	case provplan.RowAnalyze:
		sw.body = appendLine(append(sw.body[:0], frameLine), &streamLine{Az: row.Analysis})
	default:
		sw.body = appendRowBody(sw.body[:0], row)
	}
	sw.frame(sw.body)
	return sw.wrote()
}

// frame appends one frame to out.
func (sw *streamWriter) frame(kindAndBody []byte) {
	sw.out.Grow(binary.MaxVarintLen64 + len(kindAndBody))
	sw.out.Write(appendFrame(sw.out.AvailableBuffer(), kindAndBody))
}

// wrote counts the data line just appended to out, and every
// streamFlushEvery lines sends and flushes what has collected and stops for
// a client that has gone away.
func (sw *streamWriter) wrote() bool {
	sw.start()
	sw.n++
	if sw.n%streamFlushEvery == 0 {
		sent := sw.send()
		if sw.flusher != nil {
			sw.flusher.Flush()
		}
		if !sent || sw.ctx.Err() != nil {
			sw.dead = true // client hung up, or a line could not be rendered
			return false
		}
	}
	return true
}

// send hands the frames collected in out to the response — unless they are
// a page, which its caller sends — and reports whether it took them. An
// NDJSON answer gets them rendered (renderNDJSON); a path no JSON line can
// carry fails it there: with a status at the stream's first line, in band
// after it.
func (sw *streamWriter) send() bool {
	if sw.paged {
		return true
	}
	defer sw.out.Reset()
	if !sw.ndjson {
		_, err := sw.w.Write(sw.out.Bytes())
		return err == nil
	}
	var n int
	var err error
	sw.rendered, n, err = renderNDJSON(sw.rendered[:0], sw.out.Bytes())
	sw.lines += n
	if err != nil {
		if sw.lines == 0 {
			sw.s.fail(sw.w, err, http.StatusInternalServerError)
			return false
		}
		sw.s.stats.errors.Add(1)
		noteErr(sw.w, err)
		sw.rendered = appendLine(sw.rendered, &streamLine{Err: err.Error()})
	}
	sw.w.Header().Set("Content-Type", contentTypeNDJSON) // over start's, before the first write sends it
	_, werr := sw.w.Write(sw.rendered)
	return err == nil && werr == nil
}

// start commits the stream to a 200 answer: from the first line on, an
// error goes in band.
func (sw *streamWriter) start() {
	if !sw.started && !sw.paged {
		sw.w.Header().Set("Content-Type", contentTypeFrames)
		sw.started = true
	}
}

// fail ends the stream with err: as an HTTP status while no line has been
// written, as the in-band error line after.
func (sw *streamWriter) fail(err error) {
	sw.dead = true
	if !sw.started {
		sw.s.fail(sw.w, err, http.StatusInternalServerError)
		return
	}
	sw.s.stats.errors.Add(1)
	noteErr(sw.w, err)
	sw.frame(appendLine(append(sw.body[:0], frameLine), &streamLine{Err: err.Error()}))
	sw.send()
}

// end closes the stream: the terminator line and, unpaged, the stream
// accounting, unless the stream already failed. It reports whether the
// stream is complete.
func (sw *streamWriter) end() bool {
	sw.s.stats.cursorsOpen.Add(-1)
	if sw.dead {
		return false
	}
	sw.start()
	sw.frame(appendEOFBody(sw.body[:0], sw.n, sw.more))
	if sw.paged {
		return true // the caller sends the page, and books it
	}
	if !sw.send() {
		return false
	}
	sw.s.streamed(sw.w, sw.n)
	return true
}

// renderNDJSON appends to dst the NDJSON lines that frames — whole frames
// of a row stream, as streamWriter wrote them — stand for, and returns it
// with the number of lines: the body of every row stream answering a
// request that did not ask for frames, and the one place a path is checked
// for a JSON line. A record frame is {"r":…} with its proof as hex in "p",
// a tid, value, trace step or trace end frame its derived line, a
// terminator frame the terminator line, and a 'j' frame's body is its line
// already. It stops at a path that is not valid UTF-8 with a
// *pathNotUTF8Error, dst holding the lines before it.
func renderNDJSON(dst, frames []byte) ([]byte, int, error) {
	lines := 0
	for len(frames) > 0 {
		size, w := binary.Uvarint(frames)
		kind, body := frames[w], frames[w+1:w+int(size)]
		frames = frames[w+int(size):]
		var l streamLine
		switch kind {
		case frameLine:
			dst = append(dst, body...)
			lines++
			continue
		case frameRecord:
			rec, n, err := provstore.DecodeRecord(body)
			if err == nil {
				err = checkUTF8(rec.Loc, rec.Src)
			}
			if err != nil {
				return dst, lines, err
			}
			wr := toWire(rec)
			l = streamLine{R: &wr, P: hex.EncodeToString(body[n:])}
		case frameEOF:
			l.EOF = true
			l.N, l.More, _ = decodeEOFBody(body) // the writer's own terminator
		default:
			row, err := decodeRowBody(kind, body)
			if err == nil {
				err = checkUTF8(row.Event.Loc, row.Event.Src, row.External)
			}
			if err != nil {
				return dst, lines, err
			}
			switch row.Kind {
			case provplan.RowTid:
				l.Tid = row.Tid
			case provplan.RowValue:
				l.V = &wireValue{Val: row.Val, Found: row.Found}
			case provplan.RowEvent:
				ev := toWire(provstore.Record(row.Event))
				l.Ev = &ev
			default: // provplan.RowEnd
				l.End = &wireEnd{Origin: row.Origin.String()}
				if row.Origin == provplan.OriginExternal {
					l.End.External = row.External.String()
				}
			}
		}
		dst = appendLine(dst, &l)
		lines++
	}
	return dst, lines, nil
}

// streamed books one answered stream of n lines.
func (s *Server) streamed(w http.ResponseWriter, n int) {
	s.stats.recordsStreamed.Add(int64(n))
	setRecords(w, n)
}

// scanInto runs spec's cursor into sw and ends the stream, reporting
// whether it completed. Leaving the loop releases the backend cursor's
// resources; the request context cancels any store work still pending.
func (s *Server) scanInto(sw *streamWriter, spec provstore.ScanSpec) bool {
	for rec, err := range s.inner.Scan(sw.ctx, spec) {
		if err != nil {
			sw.fail(err)
			break
		}
		if !sw.record(rec) {
			break
		}
	}
	return sw.end()
}

// handleScan serves every scan as one row stream: the request's parameters
// are a provstore.ScanSpec in wire form (kind= and its argument,
// after_tid=/after_loc= to resume strictly after the last key a previous,
// possibly truncated, stream delivered) plus the handler's own limit=,
// proofs= and since=. The store seeks straight to the successor of the
// resume key (a B-tree descent, a binary search — not a walk over
// everything already streamed). /v1/scan-all, the spelling older clients
// and the benchmark's page-cache probe use, is this handler with kind
// defaulting to all.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if r.URL.Path == "/v1/scan-all" && !q.Has("kind") {
		q.Set("kind", "all")
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.fail(w, fmt.Errorf("provhttp: limit %q is not a positive integer", v), http.StatusBadRequest)
			return
		}
		limit = n
	}
	for _, own := range []string{"limit", "proofs", "since"} {
		q.Del(own) // the handler's own parameters; the rest must be exactly the spec's
	}
	spec, err := provstore.ParseScanSpec(q)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest)
		return
	}
	setScan(w, spec)
	stamp, ok := s.authStamp(w, r)
	if !ok {
		return
	}
	if stamp != nil {
		spec = provauth.AsOf(spec, *stamp)
	}

	// A limit-bounded page with no proof stamping can be served from (and
	// fill) the shared page cache. Unbounded drains stay streaming — their
	// size is the whole answer — and proofs=1 responses are per-client
	// (the snapshot root is negotiated per request), so both bypass it.
	if s.pageCache != nil && limit > 0 && stamp == nil {
		s.servePage(w, r, spec, limit)
		return
	}
	s.scanInto(s.newStream(w, r, stamp, limit, false), spec)
}

// cachedPage is one /v1/scan page as its frames — the bytes the stream
// would have produced, because the same streamWriter produced them — with
// the line count for the stream accounting.
type cachedPage struct {
	body []byte
	n    int
}

// servePage serves a limit-bounded scan page through the page cache. The
// scan is bounded at the backend's current MaxTid (or its own earlier
// bound), and the key is MaxTid and the bounded scan, so validity is purely
// horizon-keyed: the relation is append-only, which means a page of a given
// scan at a given keyset position and horizon is immutable — and any append
// moves the horizon, after which stale pages are never keyed again and age
// out of the LRU. MaxTid stays in the key of a page bounded below it: a
// store may take a batch that adds records at or below that bound along
// with a newer transaction. A page is cached as its frames, so one entry
// serves both forms: a request that did not ask for frames gets them
// rendered (renderNDJSON), and a path no JSON line can carry fails the page
// with a status. A miss runs the stream into its buffer (bounded by limit,
// unlike a full drain) and stores it only if the scan terminated cleanly.
func (s *Server) servePage(w http.ResponseWriter, r *http.Request, spec provstore.ScanSpec, limit int) {
	st, err := s.inner.Stat(r.Context())
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return
	}
	if until, bounded := spec.Bound(); !bounded || until > st.MaxTid {
		spec = spec.Until(st.MaxTid)
	}
	key := strconv.FormatInt(st.MaxTid, 10) + "\x00" + spec.Values().Encode() + "\x00" + strconv.Itoa(limit)
	var pg *cachedPage
	if v, ok := s.pageCache.Get(key); ok {
		provtrace.Mark(r.Context(), "cache:hit", provtrace.Attr{K: "cache", V: "page"})
		pg = v.(*cachedPage)
	} else {
		provtrace.Mark(r.Context(), "cache:miss", provtrace.Attr{K: "cache", V: "page"})
		sw := s.newStream(w, r, nil, limit, true)
		sw.out.Grow(64 * limit)
		if !s.scanInto(sw, spec) {
			return
		}
		pg = &cachedPage{body: bytes.Clone(sw.out.Bytes()), n: sw.n}
		s.pageCache.Put(key, pg, int64(len(key)+len(pg.body)))
	}
	body, contentType := pg.body, contentTypeFrames
	if !wantsFrames(r) {
		if body, _, err = renderNDJSON(nil, pg.body); err != nil {
			s.fail(w, err, http.StatusInternalServerError)
			return
		}
		contentType = contentTypeNDJSON
	}
	s.streamed(w, pg.n)
	w.Header().Set("Content-Type", contentType)
	w.Write(body) //nolint:errcheck // stream end
}

// handleQuery executes a whole declarative plan server-side, next to the
// data: the JSON body is a provplan.Query, compiled against the inner
// backend (a sharded inner store scatter-gathers its subplans here, in the
// daemon), and the result rows go back as one row stream. This is what
// makes a remote trace or mod one round trip — the chain steps and BFS
// waves that used to be client round trips run entirely in this handler.
// Compile errors are 400s; execution errors are the stream's.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q provplan.Query
	if err := readQuery(http.MaxBytesReader(w, r.Body, MaxQueryBytes), &q); err != nil {
		s.fail(w, fmt.Errorf("provhttp: bad query body: %w", err), http.StatusBadRequest)
		return
	}
	// Plans are immutable and safe for concurrent use, so one compilation
	// serves every request with the same canonical text. Analyze queries
	// bypass the cache: Analyze is not part of the canonical text, and a
	// plan compiled under it answers with tracing rows. The text is
	// rendered only for the cache and the slow-query log.
	cached := s.planCache != nil && !q.Analyze
	var text string
	if cached || s.log != nil && s.slowQuery > 0 {
		text = q.String()
	}
	var pl *provplan.Plan
	if cached {
		if v, ok := s.planCache.Get(text); ok {
			pl = v.(*provplan.Plan)
			provtrace.Mark(r.Context(), "cache:hit", provtrace.Attr{K: "cache", V: "plan"})
		}
	}
	if pl == nil {
		var err error
		pl, err = provplan.Compile(s.inner, &q)
		if err != nil {
			s.fail(w, err, http.StatusBadRequest)
			return
		}
		if cached {
			s.planCache.Put(text, pl, 1)
		}
	}
	setQueryText(w, text)
	stamp, ok := s.authStamp(w, r)
	if !ok {
		return
	}
	sw := s.newStream(w, r, stamp, 0, false)
	sw.skip = true
	defer sw.end()
	for row, err := range pl.Rows(r.Context()) {
		if err != nil {
			sw.fail(err)
			return
		}
		if !sw.row(row) {
			return
		}
	}
}

// queryBodies keeps the buffers /v1/query bodies are read into.
var queryBodies = provstore.NewIdle[*bytes.Buffer]()

// readQuery reads a query body, bounded by its caller, into a kept buffer
// and decodes it: one JSON value, nothing behind it.
func readQuery(body io.Reader, q *provplan.Query) error {
	buf := queryBodies.Get()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	defer queryBodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), q)
}

// authRequest admits a request to an authentication endpoint: the store
// must be authenticated, and the request may carry only the parameters the
// endpoint takes — a leftover or misspelt one is a 400, as on /v1/scan,
// never an answer to a question that was not asked.
func (s *Server) authRequest(w http.ResponseWriter, r *http.Request, params ...string) bool {
	if s.auth == nil {
		s.fail(w, errors.New("provhttp: not an authenticated store (serve a verified:// DSN)"), http.StatusBadRequest)
		return false
	}
	for k := range r.URL.Query() {
		if !slices.Contains(params, k) {
			s.fail(w, fmt.Errorf("provhttp: %s takes no %q parameter", r.URL.Path, k), http.StatusBadRequest)
			return false
		}
	}
	return true
}

// sinceAudit resolves the optional since=SIZE parameter into the
// consistency path from that tree size to root. The (nil, "", true) return
// means no since was asked for.
func (s *Server) sinceAudit(w http.ResponseWriter, r *http.Request, root provauth.Root) (audit *string, ok bool) {
	v := r.URL.Query().Get("since")
	if v == "" {
		return nil, true
	}
	since, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		s.fail(w, fmt.Errorf("provhttp: bad since parameter %q", v), http.StatusBadRequest)
		return nil, false
	}
	hashes, err := s.auth.Consistency(r.Context(), since, root.Size)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest)
		return nil, false
	}
	enc := encodeAudit(hashes)
	return &enc, true
}

// handleRoot serves the current tree head, with ?since=SIZE adding the
// consistency path a pinned client advances over.
func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if !s.authRequest(w, r, "since") {
		return
	}
	root, err := s.auth.Root(r.Context())
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return
	}
	resp := rootResponse{Root: root.String()}
	var ok bool
	if resp.Audit, ok = s.sinceAudit(w, r, root); !ok {
		return
	}
	writeJSON(w, resp)
}

// handleProve is the transport of Authority.ProveAt: the inclusion proof of
// the record keyed (tid, loc) against the head at at=SIZE leaves. It looks
// no record up and names no root — the caller already holds the root it
// asks about — so its user is a daemon chained onto this one, stamping its
// own proven streams; a reader's proof of one record is a proven point scan.
// A record of the still-open transaction is a 409 (flush to seal it).
func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	if !s.authRequest(w, r, "tid", "loc", "at") {
		return
	}
	tid, err := tidParam(r)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest)
		return
	}
	loc, err := pathParam(r, "loc")
	if err != nil {
		s.fail(w, err, http.StatusBadRequest)
		return
	}
	at, err := strconv.ParseUint(r.URL.Query().Get("at"), 10, 64)
	if err != nil {
		s.fail(w, fmt.Errorf("provhttp: bad at parameter %q", r.URL.Query().Get("at")), http.StatusBadRequest)
		return
	}
	// One span per proof this endpoint serves: a chained daemon stamping a
	// stream costs one round trip, and one span, per record.
	_, sp := provtrace.Start(r.Context(), "auth:prove")
	p, err := s.auth.ProveAt(r.Context(), tid, loc, at)
	sp.SetErr(err)
	sp.End()
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, proveResponse{P: encodeProof(p)})
}

// handleConsistency serves the proof that the tree head at old=SIZE leaves
// is a prefix of the head at new=SIZE leaves.
func (s *Server) handleConsistency(w http.ResponseWriter, r *http.Request) {
	if !s.authRequest(w, r, "old", "new") {
		return
	}
	q := r.URL.Query()
	oldSize, err1 := strconv.ParseUint(q.Get("old"), 10, 64)
	newSize, err2 := strconv.ParseUint(q.Get("new"), 10, 64)
	if err1 != nil || err2 != nil {
		s.fail(w, fmt.Errorf("provhttp: bad old/new parameters %q, %q", q.Get("old"), q.Get("new")), http.StatusBadRequest)
		return
	}
	audit, err := s.auth.Consistency(r.Context(), oldSize, newSize)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, consistencyResponse{Audit: encodeAudit(audit)})
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	st, err := s.inner.Stat(r.Context())
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, st)
}

// handleFlush pushes the inner backend's buffered group commits down — the
// durability half of a remote Session.Close. It is a no-op for write-through
// backends.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := provstore.Flush(r.Context(), s.inner); err != nil {
		s.fail(w, err, http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
