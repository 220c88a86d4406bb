package provhttp

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provcache"
	"repro/internal/provobs"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// A Client implements provstore.Backend against a provhttp.Server — the
// driver side of the cpdb:// scheme. Each Backend method is exactly one HTTP
// round trip (Append ships its whole batch in one POST; scans stream back as
// a row stream), so the paper's one-round-trip-per-call cost model survives the
// move from simulated to real networking, and netsim.ChargeBackend can wrap
// a Client to meter it like any other backend.
//
// The Client owns its transport and reuses connections across calls. It is
// safe for concurrent use.
//
// Lifecycle: Flush asks the *server* to push its buffered group commits down
// (the durability half of Session.Close, across the network); Close flushes,
// then releases the client's idle connections. Close never closes the
// server's store — the daemon owns that, and other clients may be writing.
//
// # Verified mode
//
// cpdb://host:port?verify=pin&pin=FILE turns on answer verification against
// the server's Merkle history tree (the server must publish a verified://
// store). The pin is a provauth.Anchor persisted in the pin file: the first
// root is trusted on first use, and every later root must connect to the
// anchor's current root over a verified consistency proof — a server that
// rewrites or rolls back history can never satisfy it again, and of two
// concurrent reads answered from forked histories only one is admitted. In
// this mode every scan and query asks for proofs=1; each answered record is
// checked against the response's root, the root against the anchor, and the
// record against the question that was asked (ScanSpec.Match: a point read
// is a scan bounded to its key, so its answer must carry that key, and a
// filtered scan's records must satisfy its filter — an inclusion proof
// alone would let a server substitute any other record legitimately in the
// log) before it reaches the caller. Any mismatch fails the call — there is
// no unverified fallback. Two caveats: absence and completeness are not
// authenticated (a not-found answer or an omitted record carries no proof —
// the tree has no range proofs), and records of the still-open transaction
// are invisible to verified reads until a Flush seals them — a scan bounded
// at a transaction the root does not cover, a point read of the open
// transaction included, fails with the server's 409 if it selects one.
//
// The Client also implements provauth.Authority, so a local process — or
// another daemon — can treat a remote authenticated store as its proof
// source. Root (/v1/root) and ScanProven (a proofs=1 /v1/scan) are reads
// like any other: on a verify=pin client both are pinned — the anchor must
// admit the root, and every proven record is checked
// against that root and against its scan. Only ProveAt (/v1/prove) is a raw
// forwarder, returning the proof the server built against the tree size
// the caller names: the transport a chained daemon stamps its own streams
// with, leaving the check to the reader of those streams. Consistency
// returns audit hashes that only verify against two roots the caller
// already holds.
type Client struct {
	addr    string        // host:port
	timeout time.Duration // timeout=: bounds each round trip, its body read included; 0 for none
	mu      sync.Mutex
	idle    []*conn // the connection pool, the last put back first

	anchor *provauth.Anchor // verify=pin: admits every root the server answers with; nil otherwise

	// Result cache (cpdb://…?cache=SIZE; nil when off). Keys embed gen, the
	// client's horizon generation: it advances when this client appends or
	// observes a higher MaxTid (Stat), making every older entry unreachable — the
	// coherence contract of DESIGN.md §10. Verified (verify=pin) clients
	// never build a cache: a cached answer would bypass the per-read proof
	// check, weakening the threat model for latency.
	cache    *provcache.Cache
	cacheMet *provcache.Metrics
	cacheReg *provobs.Registry
	gen      atomic.Int64
	obsTid   atomic.Int64
}

// flushTimeout bounds the Flush/Close round trips, which a shutdown path
// runs with no deadline of its own: it must not hang forever on a dead or
// black-holed service.
const flushTimeout = 30 * time.Second

var (
	_ provstore.Backend  = (*Client)(nil)
	_ provstore.Flusher  = (*Client)(nil)
	_ provplan.Executor  = (*Client)(nil)
	_ io.Closer          = (*Client)(nil)
	_ provauth.Authority = (*Client)(nil)
	_ provobs.Source     = (*Client)(nil)
)

// NewClient returns a Backend speaking to the provenance service at
// hostport ("10.0.0.5:7070", "[::1]:7070"). It does not dial: like a
// database/sql driver, connection errors surface on first use.
func NewClient(hostport string) *Client {
	return &Client{addr: hostport}
}

// Addr returns the service authority the client was opened against.
func (c *Client) Addr() string { return c.addr }

// --- the client result cache -------------------------------------------------

// bumpGen advances the cache generation, making every cached entry
// unreachable (they age out of the LRU).
func (c *Client) bumpGen() {
	if c.cache != nil {
		c.gen.Add(1)
	}
}

// observeMaxTid folds a MaxTid answer into the horizon observation: seeing
// a higher horizon than any seen before invalidates the cache (bumps the
// generation). Re-observing the same horizon keeps every entry live —
// that is what makes repeated reads at a pinned horizon free.
func (c *Client) observeMaxTid(t int64) {
	if c.cache == nil {
		return
	}
	for {
		cur := c.obsTid.Load()
		if t <= cur {
			return
		}
		if c.obsTid.CompareAndSwap(cur, t) {
			c.gen.Add(1)
			return
		}
	}
}

// cacheKey builds the cache key of a query: the current generation, then
// the query's canonical text.
func (c *Client) cacheKey(query string) string {
	return strconv.FormatInt(c.gen.Load(), 10) + "\x00" + query
}

// rowFootprint approximates a cached query row's resident bytes.
func rowFootprint(row provplan.Row) int64 {
	switch row.Kind {
	case provplan.RowRecord:
		return 64 + 16*int64(row.Rec.Loc.Len()+row.Rec.Src.Len())
	case provplan.RowEvent:
		return 64 + 16*int64(row.Event.Loc.Len()+row.Event.Src.Len())
	default:
		return 64
	}
}

// CacheStats reports the result cache's hit/miss counters (zero when
// caching is off) — the CLI's dump note and tests read it; /metrics and
// /v1/stats carry the same numbers via the cache registry.
func (c *Client) CacheStats() (hits, misses int64) {
	if c.cacheMet == nil {
		return 0, 0
	}
	return c.cacheMet.Hits(), c.cacheMet.Misses()
}

// ObsRegistries implements provobs.Source: the result cache's registry,
// so a daemon chaining a cached client carries the cpdb_cache_*{cache="client"}
// series on /metrics and the flat cache.client.* keys in /v1/stats.
func (c *Client) ObsRegistries() []*provobs.Registry {
	if c.cacheReg == nil {
		return nil
	}
	return []*provobs.Registry{c.cacheReg}
}

// --- one round trip per Backend method --------------------------------------

// do issues one request and fails on any non-expected status, restoring
// typed store errors from the response body. Every round trip is stamped
// with a trace id — the context's, when the caller (a daemon relaying a
// traced request down a backend chain) already carries one, else a fresh
// one — and errors name that id, matching the server's request log line.
// Context cancellation and typed store errors pass through bare: callers
// match on them. Every request asks for the framed row stream, which only
// /v1/scan and /v1/query offer. An open span's id is stamped so that the
// server's spans parent under the caller's, one cross-process tree.
func (c *Client) do(ctx context.Context, method, p string, q url.Values, body []byte, want int) (*http.Response, error) {
	target := p
	if len(q) > 0 {
		target += "?" + q.Encode()
	}
	trace, spanID := provtrace.IDs(ctx)
	if trace == "" {
		trace = provtrace.NewTraceID()
	}
	x := &exchange{c: c, caller: ctx, ctx: ctx, cancel: func() {}, method: method, p: p, trace: trace}
	if c.timeout > 0 {
		x.ctx, x.cancel = context.WithTimeout(ctx, c.timeout)
	}
	resp, err := x.send(target, spanID, body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		defer resp.Body.Close()
		return nil, decodeError(resp, trace)
	}
	return resp, nil
}

// getJSON issues a GET and decodes the JSON body into out. Under tracing
// the round trip is one "rpc:<endpoint>" span; the server's own spans hang
// beneath it in the merged tree.
func (c *Client) getJSON(ctx context.Context, p string, q url.Values, out any) (err error) {
	ctx, sp := provtrace.Start(ctx, rpcName(p))
	if sp != nil {
		defer func() {
			sp.SetErr(err)
			sp.End()
		}()
	}
	resp, err := c.do(ctx, http.MethodGet, p, q, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("provhttp: decoding %s response: %w", p, err)
	}
	return nil
}

// rpcName is the span name of one client round trip: "rpc:" plus the
// endpoint path with the version prefix dropped.
func rpcName(p string) string {
	return "rpc:" + strings.TrimPrefix(p, "/v1/")
}

// proofMode says what a stream request asks of the server's Merkle tree.
type proofMode int

const (
	unproven proofMode = iota // a plain stream
	proven                    // proofs=1: each record line carries its proof against the header root, taken as the server claims it
	pinned                    // proven, with since=: the anchor must also admit the header root
)

// A streamReader is the one decoder of the row stream (see the package
// doc): it reads frames, the one form of the stream. The body is outside
// input: whatever arrives, next never panics, returns false for good after
// the first error, and reports a clean end only after a terminator whose
// count matches the data lines it returned, with nothing behind it. next
// decodes each data line, whichever frame kind it arrived in: a record
// line, validated, into sr.rec with its proof encoding in sr.proofRaw, any
// other into sr.derived. Under tracing the reader holds the round trip's
// rpc span, open from the request to close.
type streamReader struct {
	ctx      context.Context
	label    any // names the stream in errors and the span: a ScanSpec or an endpoint name
	span     *provtrace.Span
	body     io.Closer
	br       *bufio.Reader    // the body, once read accepts it
	frame    []byte           // the frame last read, kind byte and body (reused)
	root     provauth.Root    // proven streams: the header root the proofs are against
	line     streamLine       // a 'j' frame's line, or the terminator however it came
	isRec    bool             // next last returned a record line
	rec      provstore.Record // that record
	proofRaw []byte           // and its proof's binary encoding: empty if it carries none, valid until the next line
	derived  provplan.Row     // the data line next last returned, unless it is a record
	n        int              // data lines returned
	done     bool
	err      error
}

// read attaches the reader to a response body of the given Content-Type:
// frames, or the stream fails as one from a daemon older than this client.
func (sr *streamReader) read(body io.ReadCloser, contentType string) {
	sr.body = body
	if contentType != contentTypeFrames {
		sr.fail(fmt.Errorf("provhttp: %v: answered as %q, not frames: %w", sr.label, contentType, errOldDaemon))
		return
	}
	sr.br = getFrameReader(body)
}

// errOldDaemon ends a stream in a form this client no longer reads: an
// NDJSON answer, or a data line in a 'j' frame.
var errOldDaemon = errors.New("the daemon is older than this client; upgrade it")

// stream issues one streaming round trip and returns the reader over its
// body — already failed when the request did; the caller closes it either
// way. The request is issued under the rpc span, so it stamps that span's id
// and the server's subtree parents correctly; with no recorder installed not
// even the span's name is built. For a proven stream the header root is
// parsed, and in pinned mode admitted by the anchor, before any line is
// read.
func (c *Client) stream(ctx context.Context, label any, method, p string, q url.Values, body []byte, mode proofMode) *streamReader {
	sr := &streamReader{ctx: ctx, label: label}
	if provtrace.Active(ctx) {
		sr.ctx, sr.span = provtrace.Start(ctx, fmt.Sprintf("rpc:%v", label))
	}
	if err := c.open(sr, method, p, q, body, mode); err != nil {
		sr.fail(err)
	}
	return sr
}

// open is the request half of stream.
func (c *Client) open(sr *streamReader, method, p string, q url.Values, body []byte, mode proofMode) error {
	var since provauth.Root
	if mode != unproven {
		if q == nil {
			q = url.Values{}
		}
		q.Set("proofs", "1")
		if mode == pinned {
			var err error
			if since, err = c.since(sr.ctx); err != nil {
				return err
			}
			q.Set("since", strconv.FormatUint(since.Size, 10))
		}
	}
	resp, err := c.do(sr.ctx, method, p, q, body, http.StatusOK)
	if err != nil {
		return err
	}
	sr.read(resp.Body, resp.Header.Get("Content-Type"))
	if mode == unproven || sr.err != nil {
		return sr.err
	}
	if sr.root, err = provauth.ParseRoot(resp.Header.Get(headerAuthRoot)); err != nil {
		return fmt.Errorf("provhttp: bad %s header: %w", headerAuthRoot, err)
	}
	if mode == pinned {
		audit, err := decodeAudit(resp.Header.Get(headerAuthConsistency))
		if err != nil {
			return fmt.Errorf("provhttp: bad %s header: %w", headerAuthConsistency, err)
		}
		return c.anchor.Admit(sr.ctx, c, sr.root, since, audit)
	}
	return nil
}

// next decodes the next data line. It returns false at the end of the
// stream: sr.err is nil after a terminator whose count matches and that
// nothing follows, and otherwise says what went wrong — cancellation first
// (a cancelled context is why the body died), then truncation, a line that
// does not decode, the server's in-band error, a miscounting terminator.
func (sr *streamReader) next() bool {
	if sr.done {
		return false
	}
	sr.line, sr.isRec, sr.proofRaw = streamLine{}, false, nil
	data, err := sr.decode()
	if err != nil {
		switch {
		case sr.ctx.Err() != nil:
			sr.fail(sr.ctx.Err())
		case err == io.EOF:
			sr.fail(fmt.Errorf("provhttp: %v: stream truncated after %d lines (missing eof terminator)", sr.label, sr.n))
		default:
			sr.fail(fmt.Errorf("provhttp: %v: %w", sr.label, err))
		}
		return false
	}
	l := &sr.line
	switch {
	case data:
		sr.n++
		return true
	case l.Err != "":
		// Not a RemoteError, whose Status means a non-2xx reply.
		sr.fail(fmt.Errorf("provhttp: %v: server error mid-stream: %s", sr.label, l.Err))
	default: // the terminator
		sr.done = true
		if l.N != sr.n {
			sr.fail(fmt.Errorf("provhttp: %v: stream carried %d lines, terminator says %d", sr.label, sr.n, l.N))
		} else if !sr.atEnd() {
			sr.fail(fmt.Errorf("provhttp: %v: bytes after the eof terminator", sr.label))
		}
	}
	return false
}

// decode reads one frame and reports whether it is a data line, decoded
// into sr.rec and sr.proofRaw or sr.derived; a terminator or an error line
// is left in sr.line. io.EOF means the body ended between frames.
func (sr *streamReader) decode() (data bool, err error) {
	if sr.frame, err = readFrame(sr.br, sr.frame); err != nil {
		return false, err
	}
	switch kind, body := sr.frame[0], sr.frame[1:]; kind {
	case frameRecord:
		rec, n, err := provstore.DecodeRecordWith(body, decodeWirePath)
		if err != nil {
			return false, err
		}
		sr.rec, sr.proofRaw, sr.isRec = rec, body[n:], true
		return true, nil
	case frameEOF:
		sr.line.EOF = true
		sr.line.N, sr.line.More, err = decodeEOFBody(body)
		return false, err
	case frameLine:
		if err := json.Unmarshal(body, &sr.line); err != nil {
			return false, err
		}
		switch l := &sr.line; {
		case l.Az != nil:
			sr.derived = provplan.Row{Kind: provplan.RowAnalyze, Analysis: l.Az}
			return true, nil
		case l.Err != "" || l.EOF:
			return false, nil
		case *l == streamLine{}:
			return false, errors.New("blank stream line")
		default:
			return false, errOldDaemon
		}
	default:
		sr.derived, err = decodeRowBody(kind, body)
		return err == nil, err
	}
}

// atEnd reports whether the body holds nothing more.
func (sr *streamReader) atEnd() bool {
	_, err := sr.br.ReadByte()
	return err == io.EOF
}

// fail ends the stream with err — the reader's own, or the caller's for a
// line that failed its check — and returns it.
func (sr *streamReader) fail(err error) error {
	sr.done, sr.err = true, err
	return err
}

// record returns the current line of a scan stream.
func (sr *streamReader) record() (provstore.Record, error) {
	if !sr.isRec {
		return provstore.Record{}, fmt.Errorf("provhttp: %v: stream line is not a record", sr.label)
	}
	return sr.rec, nil
}

// row returns the current line of a query stream.
func (sr *streamReader) row() (provplan.Row, error) {
	if sr.isRec {
		return provplan.Row{Kind: provplan.RowRecord, Rec: sr.rec}, nil
	}
	return sr.derived, nil
}

// proof decodes the current record line's inclusion proof; a record with
// none has no place in a proven stream.
func (sr *streamReader) proof() (provauth.Proof, error) {
	if len(sr.proofRaw) == 0 {
		return provauth.Proof{}, fmt.Errorf("provhttp: %v: unproven record in proven stream: %w", sr.label, provauth.ErrVerify)
	}
	return decodeProof(sr.proofRaw)
}

// close releases the response body — for a stream not read to its end that
// tears down the connection, which cancels the server-side cursor — and its
// pooled reader, and ends the rpc span.
func (sr *streamReader) close() {
	if sr.body != nil {
		sr.body.Close() //nolint:errcheck // only read
	}
	if sr.br != nil {
		putFrameReader(sr.br)
		sr.br = nil
	}
	if sr.span != nil {
		sr.span.SetAttr("records", strconv.Itoa(sr.n))
		sr.span.SetErr(sr.err)
		sr.span.End()
	}
}

// verify checks one proven record of the stream against its root.
func (sr *streamReader) verify(rec provstore.Record, proof provauth.Proof) error {
	if err := provauth.VerifyRecord(sr.root, rec, proof); err != nil {
		return fmt.Errorf("provhttp: %v: streamed record %v failed verification: %w", sr.label, rec, err)
	}
	return nil
}

// rows is the consumer loop over one row stream: open issues the round
// trip when the consumer starts ranging, convert turns each data line into
// what the caller yields and runs its per-line check. A line that fails
// fails the stream, and nothing is yielded after an error.
func rows[T any](open func() *streamReader, convert func(*streamReader) (T, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		sr := open()
		defer sr.close()
		var zero T
		for sr.next() {
			v, err := convert(sr)
			if err != nil {
				yield(zero, sr.fail(err))
				return
			}
			if !yield(v, nil) {
				return
			}
		}
		if sr.err != nil {
			yield(zero, sr.err)
		}
	}
}

// Append implements Backend: the whole batch travels as one POST of record
// frames — the binary form, which carries any label byte for byte — encoded
// into a buffer of exactly their size, sent with a Content-Length behind
// the head in one write, not chunked. A successful append moves this
// client's view of the store, so it invalidates the result cache.
func (c *Client) Append(ctx context.Context, recs []provstore.Record) (err error) {
	ctx, sp := provtrace.Start(ctx, "rpc:append")
	if sp != nil {
		sp.SetAttr("records", strconv.Itoa(len(recs)))
		defer func() {
			sp.SetErr(err)
			sp.End()
		}()
	}
	buf := make([]byte, 0, recordFramesLen(recs))
	for i := range recs {
		buf = appendRecordFrame(buf, recs[i])
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/append", nil, buf, http.StatusNoContent)
	if err != nil {
		return err
	}
	c.bumpGen()
	return resp.Body.Close()
}

// --- the pinned root ----------------------------------------------------------

// since returns the pinned root a pinned request resolves its consistency
// path from: the anchor's root, which on first use is the server's current
// root, trusted as it is.
func (c *Client) since(ctx context.Context) (provauth.Root, error) {
	if pin, ok, err := c.anchor.Root(); err != nil || ok {
		return pin, err
	}
	root, err := c.root(ctx, false)
	if err != nil {
		return provauth.Root{}, err
	}
	if err := c.anchor.Admit(ctx, c, root, provauth.Root{}, nil); err != nil {
		return provauth.Root{}, err
	}
	pin, _, err := c.anchor.Root()
	return pin, err
}

// root issues a /v1/root round trip and parses the root it answers. With
// pin set the request carries since= and the anchor must admit the root.
func (c *Client) root(ctx context.Context, pin bool) (provauth.Root, error) {
	var since provauth.Root
	q := url.Values{}
	if pin {
		var err error
		if since, err = c.since(ctx); err != nil {
			return provauth.Root{}, err
		}
		q.Set("since", strconv.FormatUint(since.Size, 10))
	}
	var rr rootResponse
	if err := c.getJSON(ctx, "/v1/root", q, &rr); err != nil {
		return provauth.Root{}, err
	}
	root, err := provauth.ParseRoot(rr.Root)
	if err != nil {
		return provauth.Root{}, fmt.Errorf("provhttp: bad root from server: %w", err)
	}
	if pin {
		var audit []provauth.Hash
		if rr.Audit != nil {
			if audit, err = decodeAudit(*rr.Audit); err != nil {
				return provauth.Root{}, err
			}
		}
		if err := c.anchor.Admit(ctx, c, root, since, audit); err != nil {
			return provauth.Root{}, err
		}
	}
	return root, nil
}

// Scan implements Backend: one GET /v1/scan round trip carrying the spec's
// wire form, answered as a row stream (see the package doc) — a scan holds
// one record in memory however large the result, and the whole
// (Tid, Loc)-ordered relation is one round trip however many transactions
// it spans. Resume a truncated stream with spec.After from the last key
// that arrived intact.
//
// In verified mode every scan asks for proofs: the response root is checked
// against the anchor, and each record against that root, before it is yielded
// — an unproven or wrongly proven record fails the stream. Each record is
// also re-checked against the spec itself, resume key included: an inclusion
// proof shows a record is in the log, not that it belongs in *this* answer,
// so without it a server could pad a filtered stream with arbitrary in-log
// records. (Completeness is the dual gap and is not provable — the tree
// has no range proofs — so a verified scan can still omit matching
// records; it can never smuggle in non-matching or forged ones.)
func (c *Client) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	if c.anchor != nil {
		return func(yield func(provstore.Record, error) bool) {
			for pr, err := range c.ScanProven(ctx, spec) {
				if !yield(pr.Rec, err) {
					return
				}
			}
		}
	}
	return rows(func() *streamReader {
		return c.stream(ctx, spec, http.MethodGet, "/v1/scan", spec.Values(), nil, unproven)
	}, (*streamReader).record)
}

// ScanProven implements provauth.Authority: one proofs=1 server cursor,
// each line's record and proof yielded with the header root — the form a
// verifying consumer (a replica applier, the CLI's prove and verify verbs)
// checks record by record. On a verify=pin client the stream is pinned, as
// every verified read is: the anchor must admit the header root, and each
// record is checked against spec (resume key included) and against that
// root before it is yielded. Otherwise it is raw: the root arrives exactly
// as the server claimed it, so a consumer that wants more than
// self-consistency must admit it through a provauth.Anchor of its own, as
// provrepl's verified appliers do.
func (c *Client) ScanProven(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provauth.ProvenRecord, error] {
	mode := proven
	if c.anchor != nil {
		mode = pinned
	}
	return rows(func() *streamReader {
		return c.stream(ctx, spec, http.MethodGet, "/v1/scan", spec.Values(), nil, mode)
	}, func(sr *streamReader) (pr provauth.ProvenRecord, err error) {
		pr.Root = sr.root
		if pr.Rec, err = sr.record(); err != nil {
			return pr, err
		}
		if pr.Proof, err = sr.proof(); err != nil || mode != pinned {
			return pr, err
		}
		if !spec.Match(pr.Rec) {
			return pr, fmt.Errorf("provhttp: %v: record {%d, %s} is outside the requested scan: %w", spec, pr.Rec.Tid, pr.Rec.Loc, provauth.ErrVerify)
		}
		return pr, sr.verify(pr.Rec, pr.Proof)
	})
}

// ExecPlan implements provplan.Executor: the whole declarative query ships
// to the server's POST /v1/query as JSON and executes there, next to the
// data — one round trip for an entire trace chain or mod BFS, where the
// method-per-round-trip Backend surface would pay one per scan. The result
// comes back as a row stream, like a scan's (see the package doc).
// In verified mode the plan ships with proofs=1: record rows must verify
// against the (pin-checked) response root; derived rows — tids,
// aggregates, trace steps — are computed answers with no leaf to prove and
// pass through under the root's cover of the relation they came from.
//
// With a result cache, a repeated query at an unchanged generation replays
// its materialized rows locally — zero round trips. Only fully drained,
// error-free result streams are cached (a consumer that breaks early never
// saw the tail, so there is nothing complete to keep); analyze queries
// carry per-execution timings and bypass the cache, as does verified mode.
func (c *Client) ExecPlan(ctx context.Context, q *provplan.Query) iter.Seq2[provplan.Row, error] {
	if c.cache == nil || c.anchor != nil || q.Analyze {
		return c.execPlan(ctx, q)
	}
	key := c.cacheKey(q.String())
	if v, ok := c.cache.Get(key); ok {
		rows := v.([]provplan.Row)
		provtrace.Mark(ctx, "cache:hit", provtrace.Attr{K: "cache", V: "client"}, provtrace.Attr{K: "wire", V: "/v1/query"})
		return func(yield func(provplan.Row, error) bool) {
			for _, row := range rows {
				if !yield(row, nil) {
					return
				}
			}
		}
	}
	provtrace.Mark(ctx, "cache:miss", provtrace.Attr{K: "cache", V: "client"}, provtrace.Attr{K: "wire", V: "/v1/query"})
	return func(yield func(provplan.Row, error) bool) {
		rows := make([]provplan.Row, 0, 16)
		size := int64(len(key))
		complete := true
		c.execPlan(ctx, q)(func(row provplan.Row, err error) bool {
			if err != nil {
				complete = false
				yield(provplan.Row{}, err)
				return false
			}
			rows = append(rows, row)
			size += rowFootprint(row)
			if !yield(row, nil) {
				complete = false
				return false
			}
			return true
		})
		if complete {
			c.cache.Put(key, rows, size)
		}
	}
}

// execPlan is the uncached /v1/query round trip under ExecPlan.
func (c *Client) execPlan(ctx context.Context, q *provplan.Query) iter.Seq2[provplan.Row, error] {
	mode := unproven
	if c.anchor != nil {
		mode = pinned
	}
	return rows(func() *streamReader {
		body, err := json.Marshal(q)
		if err != nil {
			return &streamReader{done: true, err: err}
		}
		return c.stream(ctx, "query", http.MethodPost, "/v1/query", nil, body, mode)
	}, func(sr *streamReader) (provplan.Row, error) {
		row, err := sr.row()
		if err == nil && mode == pinned && row.Kind == provplan.RowRecord {
			var proof provauth.Proof
			if proof, err = sr.proof(); err == nil {
				err = sr.verify(row.Rec, proof)
			}
		}
		return row, err
	})
}

// --- the remote Authority surface ----------------------------------------------

// Root implements provauth.Authority: the server's current tree head. On a
// verify=pin client the anchor must admit the answer before it is returned.
func (c *Client) Root(ctx context.Context) (provauth.Root, error) {
	return c.root(ctx, c.anchor != nil)
}

// ProveAt implements provauth.Authority: the raw /v1/prove transport.
func (c *Client) ProveAt(ctx context.Context, tid int64, loc path.Path, atSize uint64) (provauth.Proof, error) {
	var pr proveResponse
	q := url.Values{
		"tid": {strconv.FormatInt(tid, 10)},
		"loc": {loc.String()},
		"at":  {strconv.FormatUint(atSize, 10)},
	}
	if err := c.getJSON(ctx, "/v1/prove", q, &pr); err != nil {
		return provauth.Proof{}, err
	}
	return decodeProofHex(pr.P)
}

// Consistency implements provauth.Authority.
func (c *Client) Consistency(ctx context.Context, oldSize, newSize uint64) ([]provauth.Hash, error) {
	var cr consistencyResponse
	q := url.Values{
		"old": {strconv.FormatUint(oldSize, 10)},
		"new": {strconv.FormatUint(newSize, 10)},
	}
	if err := c.getJSON(ctx, "/v1/consistency", q, &cr); err != nil {
		return nil, err
	}
	return decodeAudit(cr.Audit)
}

// Stat implements Backend. The answer is never cached — its MaxTid *is* the
// horizon observation: every call is a real round trip, and a MaxTid higher
// than any seen before invalidates the result cache.
func (c *Client) Stat(ctx context.Context) (provstore.Stat, error) {
	var st provstore.Stat
	if err := c.getJSON(ctx, "/v1/stat", nil, &st); err != nil {
		return provstore.Stat{}, err
	}
	c.observeMaxTid(st.MaxTid)
	return st, nil
}

// Flush implements provstore.Flusher across the network: one round trip that
// pushes the server backend's buffered group commits down to its store. It
// carries the caller's context, so a flush issued while serving a request
// propagates that request's trace and span ids — a chained daemon's flush
// round trip joins the caller's trace instead of minting a fresh id. A
// shutdown path flushes under context.Background, so the round trip is also
// bounded by an internal deadline instead of hanging on an unreachable
// service.
func (c *Client) Flush(ctx context.Context) (err error) {
	ctx, sp := provtrace.Start(ctx, "rpc:flush")
	if sp != nil {
		defer func() {
			sp.SetErr(err)
			sp.End()
		}()
	}
	ctx, cancel := context.WithTimeout(ctx, flushTimeout)
	defer cancel()
	resp, err := c.do(ctx, http.MethodPost, "/v1/flush", nil, nil, http.StatusNoContent)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// FetchTrace returns the spans the server's trace store holds for one trace
// id, or nil with no error when the server has no trace endpoints (tracing
// off, or an older daemon) or no such trace — absence is normal during
// read-time merging across a chain, not a failure.
func (c *Client) FetchTrace(ctx context.Context, id string) ([]provtrace.Span, error) {
	var tr provtrace.Trace
	if err := c.getJSON(ctx, "/v1/traces/"+url.PathEscape(id), nil, &tr); err != nil {
		var re *RemoteError
		if errors.As(err, &re) && (re.Status == http.StatusNotFound || re.Status == http.StatusMethodNotAllowed) {
			return nil, nil
		}
		return nil, err
	}
	return tr.Spans, nil
}

// Traces lists the server's buffered traces, newest first, without their
// spans. minDur filters to traces at least that long; limit caps the count
// (0 means the server default).
func (c *Client) Traces(ctx context.Context, minDur time.Duration, limit int) ([]provtrace.Trace, error) {
	q := url.Values{}
	if minDur > 0 {
		q.Set("min_dur", minDur.String())
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var lr struct {
		Traces []provtrace.Trace `json:"traces"`
	}
	if err := c.getJSON(ctx, "/v1/traces", q, &lr); err != nil {
		return nil, err
	}
	return lr.Traces, nil
}

// Close implements io.Closer: it flushes the server's buffers (so
// Session.Close keeps its durability promise over the network) and releases
// the client's pooled connections. The server's store stays open — the
// daemon owns its lifecycle.
func (c *Client) Close() error {
	err := c.Flush(context.Background())
	c.mu.Lock()
	for _, cn := range c.idle {
		cn.Close() //nolint:errcheck // released
	}
	c.idle = nil
	c.mu.Unlock()
	return err
}

// --- the cpdb:// driver ------------------------------------------------------

func init() {
	provstore.RegisterDriver("cpdb", provstore.DriverFunc(openDSN))
}

// ParseSizeBytes parses a human byte size: a plain integer byte count or
// one with a kb/mb/gb suffix (powers of 1024, case-insensitive). A size
// past math.MaxInt64 bytes is refused.
func ParseSizeBytes(s string) (int64, error) {
	mult := int64(1)
	lower := strings.ToLower(s)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30}} {
		if strings.HasSuffix(lower, u.suffix) {
			mult, lower = u.mult, strings.TrimSuffix(lower, u.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(lower, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("provhttp: %q is not a positive byte size (want N, Nkb, Nmb or Ngb)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("provhttp: byte size %q overflows int64", s)
	}
	return n * mult, nil
}

// openDSN opens cpdb://host:port[?timeout=5s][&cache=SIZE]
// [&verify=pin&pin=FILE]: a client backend speaking to the cpdbd
// provenance service at that authority.
//
//   - timeout bounds every round trip, reading a scan stream to its end
//     included (default: none; per-call contexts cancel).
//   - cache bounds a client-side result cache: repeated declarative
//     queries (Trace, Mod, …, via ExecPlan) answer locally with zero round
//     trips until this client appends or observes a higher MaxTid. MaxTid
//     itself is never cached — it *is* the horizon observation.
//   - verify=pin turns on verified mode (see the Client doc) with the
//     pinned root persisted at pin=FILE.
//
// cache combined with verify=pin is rejected: verified reads are
// individually proof-checked and must not answer from a local cache.
func openDSN(dsn provstore.DSN) (provstore.Backend, error) {
	if err := dsn.RejectUnknownParams("timeout", "verify", "pin", "cache"); err != nil {
		return nil, err
	}
	host, port, err := dsn.HostPort()
	if err != nil {
		return nil, err
	}
	c := NewClient(net.JoinHostPort(host, port))
	if v := dsn.Param("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("provstore: dsn %s: timeout %q is not a positive duration", dsn, v)
		}
		c.timeout = d
	}
	if v := dsn.Param("cache"); v != "" {
		if dsn.Param("verify") != "" {
			return nil, fmt.Errorf("provstore: dsn %s: cache cannot be combined with verify=pin (verified reads are proof-checked per round trip, never served from a local cache)", dsn)
		}
		n, err := ParseSizeBytes(v)
		if err != nil {
			return nil, fmt.Errorf("provstore: dsn %s: bad cache size: %w", dsn, err)
		}
		c.cacheReg = provobs.NewRegistry()
		c.cacheMet = provcache.NewMetrics(c.cacheReg, "client")
		c.cache = provcache.New(n, c.cacheMet)
	}
	switch v := dsn.Param("verify"); v {
	case "":
		if dsn.Param("pin") != "" {
			return nil, fmt.Errorf("provstore: dsn %s: pin requires verify=pin", dsn)
		}
	case "pin":
		file := dsn.Param("pin")
		if file == "" {
			return nil, fmt.Errorf("provstore: dsn %s: verify=pin needs a pin=FILE parameter", dsn)
		}
		c.anchor = provauth.NewAnchor(file)
	default:
		return nil, fmt.Errorf("provstore: dsn %s: unknown verify mode %q (only \"pin\")", dsn, v)
	}
	return c, nil
}
