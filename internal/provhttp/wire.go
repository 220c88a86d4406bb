// Package provhttp exposes the provstore.Backend interface over HTTP:
// a Server that publishes any inner backend (opened by DSN) as a network
// provenance service, and a Client that implements provstore.Backend against
// such a service, self-registering the cpdb:// DSN scheme.
//
// The paper's architecture (Figure 2) treats the provenance database P as a
// service reached over the network — the original deployment spoke JDBC to
// MySQL and SOAP to Timber. This package is the real-network counterpart of
// internal/netsim's simulated connections: the wire protocol maps each
// Backend method to exactly one HTTP round trip, so the paper's cost model
// (and netsim.ChargeBackend's per-call charging, when it wraps a Client)
// carries over unchanged to a deployed service.
//
// Protocol (version 1, all paths under /v1/):
//
//	POST /v1/append                  record frames (Content-Type
//	                                 application/x-cpdb-frames, the
//	                                 Client's form) or NDJSON records in,
//	                                 204 out (batched); 413 over
//	                                 MaxAppendBytes, or for a record over
//	                                 the store's size bound
//	GET  /v1/scan?kind=              one ordered scan, answered as a row
//	     [&tid= | &loc=]               stream: a provstore.ScanSpec in wire
//	     [&after_tid=&after_loc=]      form (kind all, tid, loc, loc-prefix
//	     [&until=] [&limit=]           or loc-ancestors; ScanSpec.Values),
//	                                   resumed after a key, bounded at a
//	                                   transaction and cut to a page by the
//	                                   keyset parameters. Anything but the
//	                                   kind's own parameters is a 400. A
//	                                   point read (provstore.Lookup,
//	                                   NearestAncestor) is one such scan
//	GET  /v1/scan-all                the same handler, kind defaulting to all
//	POST /v1/query                   declarative provplan.Query as the JSON
//	                                 body; the whole plan executes
//	                                 server-side, next to the data, and the
//	                                 result comes back as one row stream —
//	                                 a multi-step trace or mod costs one
//	                                 round trip instead of one per scan
//	GET  /v1/stat                    {"maxTid":N,"count":N,"bytes":N}
//	POST /v1/flush                   pushes the server backend's buffered
//	                                 group commits down, 204
//	GET  /v1/ping                    {"ok":true} (readiness)
//	GET  /v1/stats                   expvar-style request/record counters
//	GET  /metrics                    Prometheus text exposition: the same
//	                                 counters plus per-endpoint latency and
//	                                 stream-size histograms, and the
//	                                 provobs registries of the backend
//	                                 chain (DESIGN.md §9)
//
// Every request carries an X-Cpdb-Trace-Id header — stamped by the Client
// per round trip (or taken from the caller's context) — which the server
// threads through the request context and its one structured log line per
// request; error responses echo it inside RemoteError, so a client-side
// failure and its server-side log line share one grep key. A query with
// Analyze set streams its per-operator measurements as a final tagged
// {"az":…} row before the terminator — a remote EXPLAIN ANALYZE is still
// exactly one round trip.
//
// When the published backend is authenticated (a provauth.AuthBackend, i.e.
// a verified:// DSN), three more endpoints serve the Merkle tree:
//
//	GET  /v1/root[?since=SIZE]       {"root":"size:tid:hex"}; since= adds
//	                                 "audit", the consistency path from
//	                                 that tree size
//	GET  /v1/prove?tid=&loc=&at=     {"p":hex}: the record's inclusion proof
//	                                 against the head at SIZE leaves — the
//	                                 transport of Authority.ProveAt, which
//	                                 a chained daemon stamps its streams with
//	GET  /v1/consistency?old=&new=   {"audit":"hex,…"} between tree sizes
//
// Each answers 400 on a parameter it does not take. Every scan or query
// accepts proofs=1 (400 on an unauthenticated store); a reader's proof of
// one record is a proven point scan. The cpdb://?verify=pin&pin=FILE client
// drives all of this automatically and fails closed on any mismatch.
//
// # The row stream
//
// /v1/scan and /v1/query answer with the same thing: lines, one streamLine
// each — data lines (records, or a query's tagged rows), then exactly one
// closing line. streamWriter is the only encoder, streamReader the only
// decoder, and the rules live there and here, nowhere else:
//
//   - Form: a request whose Accept header names application/x-cpdb-frames
//     is answered in frames under that Content-Type; any other request —
//     curl, an older client — gets application/x-ndjson, one JSON line per
//     streamLine. The Client always asks for frames and decodes whichever
//     Content-Type comes back. That header pair is the whole negotiation:
//     no flag, DSN parameter or endpoint selects a form, and everything
//     below holds for both.
//   - Frames: uvarint length | kind byte | body, the length counting the
//     kind byte and the body. Kind 'r' is a record line: the body is
//     provstore.Record.AppendBinary — the one binary form of a record, also
//     the Merkle leaf preimage — followed on a proven stream by the
//     provauth.Proof binary encoding. Kind 'j' is every other line (tid, v,
//     ev, end, az, terminator, in-band error): the body is its NDJSON line.
//     A length of zero or above maxFrameBytes (1 MiB) and an unknown kind
//     are decode errors; the length is checked before anything is
//     allocated for it.
//   - Terminator: {"eof":true,"n":N}, N the number of data lines before
//     it, and nothing after it. A body that ends without one was truncated
//     — a dying server or connection — and is an error, never a short
//     result; so is a count that does not match, and so are bytes behind
//     the terminator.
//   - Errors: a failure before the first line is an HTTP status with a
//     JSON error body. After it the 200 is already on the wire, so the
//     failure is the closing line, {"err":msg}, instead of a terminator.
//   - limit=N (scans) bounds the lines written; when a further record
//     exists the terminator carries "more":true, and the next page resumes
//     after the last key this one delivered (after_tid, after_loc).
//   - proofs=1: the response carries the snapshot root in the
//     X-Cpdb-Auth-Root header (plus X-Cpdb-Auth-Consistency when since=SIZE
//     is given), and each record line carries its inclusion proof against
//     that one root: the provauth.Proof binary encoding, raw behind the
//     record in a frame, as hex in the "p" field of an NDJSON line.
//     The stream answers as of its root: records of the still-open
//     transaction are skipped — they count towards neither n nor limit —
//     until a flush seals them. Derived rows (tids, aggregates, trace
//     steps) have no leaf to prove and carry none.
//   - Cadence: lines collect in one reused buffer; every streamFlushEvery
//     lines the writer sends and flushes it, so a long result leaves as
//     chunks the client can start decoding, and checks that the client is
//     still there; the reader decodes as the consumer pulls, and closing
//     the body early cancels the server-side cursor.
//
// Outside a record frame, records travel as JSON objects whose Loc/Src
// fields are canonical path strings ("T/c1/y"). That is lossless for labels
// of valid UTF-8 — labels cannot contain '/' — and for no others:
// encoding/json would write U+FFFD for a stray byte, so a JSON line that
// would carry such a path is a *PathNotUTF8Error instead (in band, like any
// failure after the first line). A record frame carries any path. Errors
// travel as JSON bodies with an HTTP status; the {Tid, Loc} key violation is
// tagged so the client can rebuild the typed *provstore.DupKeyError the rest
// of the system matches on.
package provhttp

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"unicode/utf8"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provcache"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// wirePaths interns the paths the row stream decodes, keyed by their binary
// encoding. A drain decodes one Loc (and often one Src) per record, and real
// provenance streams repeat a small vocabulary of locations millions of
// times. Reads are lock-free (provcache.Intern), and a path a full table has
// no room for is decoded on its own.
var wirePaths = provcache.NewIntern[path.Path](8192)

// decodeWirePath decodes a path's binary encoding out of a record frame
// through wirePaths: it accepts what path.DecodeBinary accepts and returns
// the same path (the contract of provstore.DecodeRecordWith). A path the
// table holds costs no allocation, any other one string, which the table
// keeps while it has room.
func decodeWirePath(b []byte) (path.Path, error) {
	if p, ok := wirePaths.GetBytes(b); ok {
		return p, nil
	}
	enc := string(b)
	p, err := path.DecodeBinaryString(enc)
	if err == nil && !wirePaths.Full() {
		wirePaths.Put(enc, p)
	}
	return p, err
}

// parseWirePath parses a path's canonical text from a JSON line through
// wirePaths: the text is rewritten into the binary encoding in a stack
// buffer — '/' becomes the 0x00 terminator, 0x00 and 0x01 are escaped — and
// looked up as a frame's path would be. A text with an empty label rewrites
// to an encoding with one, which the decoder rejects.
func parseWirePath(s string) (path.Path, error) {
	if s == "" {
		return path.Root, nil
	}
	var buf [128]byte
	key := buf[:0]
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case path.Separator:
			key = append(key, 0x00)
		case 0x00, 0x01:
			key = append(key, 0x01, c+2)
		default:
			key = append(key, c)
		}
	}
	return decodeWirePath(append(key, 0x00))
}

// The two forms of the row stream, as Content-Type and Accept values (see
// "The row stream" in the package doc).
const (
	contentTypeNDJSON = "application/x-ndjson"
	contentTypeFrames = "application/x-cpdb-frames"
)

// The frame kinds, and the largest length a frame may declare: far above
// any line the writer produces (a record with its proof is a few hundred
// bytes), small enough that a hostile length prefix buys one bounded buffer.
const (
	frameRecord   byte = 'r'
	frameLine     byte = 'j'
	maxFrameBytes      = 1 << 20
)

// appendFrame appends one frame: kindAndBody behind its uvarint length.
func appendFrame(buf, kindAndBody []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(kindAndBody))), kindAndBody...)
}

// appendRecordFrame appends r as one record frame, encoding it in place.
func appendRecordFrame(buf []byte, r provstore.Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(1+r.EncodedSize()))
	return r.AppendBinary(append(buf, frameRecord))
}

// readFrame reads one frame from br into buf, grown as needed, and returns
// it: the kind byte and the body. The declared length is checked against
// maxFrameBytes before the buffer grows to it. io.EOF means br ended before
// the frame began.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return buf, err
	}
	if size == 0 || size > maxFrameBytes {
		return buf, fmt.Errorf("frame of %d bytes (a frame holds 1 to %d)", size, maxFrameBytes)
	}
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, fmt.Errorf("stream truncated inside a frame: %w", err)
	}
	return buf, nil
}

// A PathNotUTF8Error reports a path a JSON line cannot carry: encoding/json
// writes U+FFFD for every byte that is not UTF-8, so the line would name
// another path. A record frame carries any path.
type PathNotUTF8Error struct {
	Path path.Path
}

func (e *PathNotUTF8Error) Error() string {
	return fmt.Sprintf("provhttp: path %q is not valid UTF-8, so no JSON line can carry it", e.Path)
}

// checkUTF8 returns a *PathNotUTF8Error for the first of ps that is not
// valid UTF-8. A path's encoding puts only ASCII bytes between and inside
// its labels' bytes, so it is valid UTF-8 exactly when the labels are.
func checkUTF8(ps ...path.Path) error {
	var buf [128]byte
	for _, p := range ps {
		if !utf8.Valid(p.AppendBinary(buf[:0])) {
			return &PathNotUTF8Error{Path: p}
		}
	}
	return nil
}

// Authentication headers on proven streams: the one root every "p" proof
// of the response verifies against, and (when the request carried
// since=SIZE) the consistency path connecting that older tree size to it.
const (
	headerAuthRoot        = "X-Cpdb-Auth-Root"
	headerAuthConsistency = "X-Cpdb-Auth-Consistency"
)

// headerTraceID carries the client-stamped request trace id. The server
// threads it through the request context into the backend chain and its
// request log line; the client folds it into transport and remote errors,
// so one grep connects a failed call to the server-side line it produced.
const headerTraceID = "X-Cpdb-Trace-Id"

// headerSpanID carries the id of the span open on the client when the
// request was issued. A server that sees it continues the caller's trace:
// its root span parents under this id, and the trace is force-kept (the
// caller sampled it already), so a daemon chain yields one coherent
// cross-process tree instead of per-process fragments.
const headerSpanID = "X-Cpdb-Span-Id"

// encodeProof renders an inclusion proof for the "p" field.
func encodeProof(p provauth.Proof) string {
	return hex.EncodeToString(p.AppendBinary(nil))
}

// decodeProofHex parses a "p" field.
func decodeProofHex(s string) (provauth.Proof, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return provauth.Proof{}, fmt.Errorf("provhttp: bad proof hex: %w", err)
	}
	return decodeProof(raw)
}

// decodeProof parses a proof's binary encoding, all of raw.
func decodeProof(raw []byte) (provauth.Proof, error) {
	p, n, err := provauth.DecodeProof(raw)
	if err != nil {
		return provauth.Proof{}, err
	}
	if n != len(raw) {
		return provauth.Proof{}, fmt.Errorf("provhttp: %d trailing bytes after proof", len(raw)-n)
	}
	return p, nil
}

// encodeAudit renders a consistency path as comma-joined hex for the
// header / JSON array form ("" for the empty path).
func encodeAudit(audit []provauth.Hash) string {
	parts := make([]string, len(audit))
	for i, h := range audit {
		parts[i] = h.String()
	}
	return strings.Join(parts, ",")
}

// decodeAudit parses a comma-joined consistency path ("" is the valid
// empty path: equal sizes, or growth from the empty tree).
func decodeAudit(s string) ([]provauth.Hash, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	audit := make([]provauth.Hash, len(parts))
	for i, p := range parts {
		h, err := provauth.ParseHash(p)
		if err != nil {
			return nil, fmt.Errorf("provhttp: bad consistency path: %w", err)
		}
		audit[i] = h
	}
	return audit, nil
}

// wireRecord is the JSON form of one Prov row.
type wireRecord struct {
	Tid int64  `json:"tid"`
	Op  string `json:"op"`
	Loc string `json:"loc"`
	Src string `json:"src,omitempty"` // absent for the paper's ⊥
}

// toWire converts a record for transmission.
func toWire(r provstore.Record) wireRecord {
	w := wireRecord{Tid: r.Tid, Op: r.Op.String(), Loc: r.Loc.String()}
	if r.Op == provstore.OpCopy {
		w.Src = r.Src.String()
	}
	return w
}

// record parses and validates a received record.
func (w wireRecord) record() (provstore.Record, error) {
	r, err := w.parse()
	if err == nil {
		err = r.Validate()
	}
	if err != nil {
		return provstore.Record{}, err
	}
	return r, nil
}

// parse parses the fields of a received record or trace step (a step has a
// record's shape but is a computed answer, held to no store invariant).
func (w wireRecord) parse() (provstore.Record, error) {
	if len(w.Op) != 1 {
		return provstore.Record{}, fmt.Errorf("provhttp: bad op %q", w.Op)
	}
	r := provstore.Record{Tid: w.Tid, Op: provstore.OpKind(w.Op[0])}
	var err error
	if r.Loc, err = parseWirePath(w.Loc); err != nil {
		return provstore.Record{}, fmt.Errorf("provhttp: bad loc %q: %w", w.Loc, err)
	}
	if r.Src, err = parseWirePath(w.Src); err != nil {
		return provstore.Record{}, fmt.Errorf("provhttp: bad src %q: %w", w.Src, err)
	}
	return r, nil
}

// streamLine is one line of a row stream — the one response form of
// /v1/scan and /v1/query (see "The row stream" in the package doc) — as its
// JSON: an NDJSON line, or the body of a 'j' frame (a framed stream carries
// its record lines as 'r' frames instead). Exactly one variant is set per
// line:
//
//	{"r":record[,"p":proof]}          record (scan record, select row)
//	{"tid":N}                         mod/hist row
//	{"v":{"val":N,"found":bool}}      aggregate or src answer
//	{"ev":{"tid":N,"op":"C","loc":…}} trace step
//	{"end":{"origin":…,"external":…}} trace terminator row
//	{"az":{"ops":[…],"scanned":N}}    analyze trailer (analyze queries only)
//	{"eof":true,"n":N[,"more":true]}  stream terminator (always last)
//	{"err":…}                         server failed mid-stream (always last)
//
// The field order is the byte order on the wire; streamWriter is the only
// encoder and streamReader the only decoder.
type streamLine struct {
	R    *wireRecord        `json:"r,omitempty"`
	P    string             `json:"p,omitempty"`   // inclusion proof (record lines, proofs=1)
	Tid  int64              `json:"tid,omitempty"` // transaction ids are >= 1
	V    *wireValue         `json:"v,omitempty"`
	Ev   *wireRecord        `json:"ev,omitempty"` // a trace step has a record's shape
	End  *wireEnd           `json:"end,omitempty"`
	Az   *provplan.Analysis `json:"az,omitempty"`
	EOF  bool               `json:"eof,omitempty"`
	N    int                `json:"n,omitempty"`
	More bool               `json:"more,omitempty"`
	Err  string             `json:"err,omitempty"`
}

// wireValue is a scalar answer with its existence bit (min/max of an empty
// result, src of external data: found=false).
type wireValue struct {
	Val   int64 `json:"val"`
	Found bool  `json:"found"`
}

// wireEnd is the trace terminator row: the origin classification by name
// ("inserted", "external", "preexisting") and, for external chains, the
// first out-of-database location reached.
type wireEnd struct {
	Origin   string `json:"origin"`
	External string `json:"external,omitempty"`
}

// origins maps wire origin names back to the enum.
var origins = map[string]provplan.Origin{
	provplan.OriginInserted.String():    provplan.OriginInserted,
	provplan.OriginExternal.String():    provplan.OriginExternal,
	provplan.OriginPreexisting.String(): provplan.OriginPreexisting,
}

// row parses a received derived data line back into a provplan.Row (record
// lines, the terminator and error lines never leave streamReader as lines).
func (l *streamLine) row() (provplan.Row, error) {
	switch {
	case l.Tid != 0:
		return provplan.Row{Kind: provplan.RowTid, Tid: l.Tid}, nil
	case l.V != nil:
		return provplan.Row{Kind: provplan.RowValue, Val: l.V.Val, Found: l.V.Found}, nil
	case l.Ev != nil:
		ev, err := l.Ev.parse()
		if err != nil {
			return provplan.Row{}, err
		}
		return provplan.Row{Kind: provplan.RowEvent, Event: provplan.Event(ev)}, nil
	case l.Az != nil:
		return provplan.Row{Kind: provplan.RowAnalyze, Analysis: l.Az}, nil
	case l.End != nil:
		origin, ok := origins[l.End.Origin]
		if !ok {
			return provplan.Row{}, fmt.Errorf("provhttp: unknown trace origin %q", l.End.Origin)
		}
		ext, err := path.Parse(l.End.External)
		if err != nil {
			return provplan.Row{}, fmt.Errorf("provhttp: bad external path %q: %w", l.End.External, err)
		}
		return provplan.Row{Kind: provplan.RowEnd, Origin: origin, External: ext}, nil
	default:
		return provplan.Row{}, errors.New("provhttp: blank stream line")
	}
}

// rootResponse answers /v1/root.
type rootResponse struct {
	Root  string  `json:"root"`
	Audit *string `json:"audit,omitempty"` // pointer, set iff the request carried since=: "" is a valid (empty) path
}

// proveResponse answers /v1/prove: the inclusion proof, hex.
type proveResponse struct {
	P string `json:"p"`
}

// consistencyResponse answers /v1/consistency.
type consistencyResponse struct {
	Audit string `json:"audit"`
}

// wireError is the JSON body of a non-2xx response.
type wireError struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"` // "dupkey" for *provstore.DupKeyError
	Tid   int64  `json:"tid,omitempty"`
	Loc   string `json:"loc,omitempty"`
}

const kindDupKey = "dupkey"

// writeError maps a backend error onto a status code and JSON body.
func writeError(w http.ResponseWriter, err error, status int) {
	we := wireError{Error: err.Error()}
	var dup *provstore.DupKeyError
	if errors.As(err, &dup) {
		status = http.StatusConflict
		we.Kind = kindDupKey
		we.Tid = dup.Tid
		we.Loc = dup.Loc.String()
	}
	// A record the store has no room for is the client's, like a body over
	// the endpoint's limit.
	var tooLarge *provstore.RecordTooLargeError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(we) //nolint:errcheck // nothing left to report to
}

// A RemoteError is a non-2xx response from the provenance service that does
// not decode to a typed store error. Trace is the id the failing request was
// stamped with — the same id the server's request log line carries.
type RemoteError struct {
	Status int    // HTTP status code
	Msg    string // server-reported message (or raw body)
	Trace  string // request trace id ("" when the request carried none)
}

func (e *RemoteError) Error() string {
	// The trace id sits before the server message, so wrappers that match
	// on the underlying message as a suffix keep working.
	if e.Trace != "" {
		return fmt.Sprintf("provhttp: server error (HTTP %d) [trace %s]: %s", e.Status, e.Trace, e.Msg)
	}
	return fmt.Sprintf("provhttp: server error (HTTP %d): %s", e.Status, e.Msg)
}

// Unwrap makes a 409 match provauth.ErrUnsealed: it is the status the
// server answers a proof of a record the root does not yet cover with (a
// duplicate key, the other 409, decodes to *provstore.DupKeyError), so the
// sentinel survives a hop — a chained daemon's stamping, a pinned read.
func (e *RemoteError) Unwrap() error {
	if e.Status == http.StatusConflict {
		return provauth.ErrUnsealed
	}
	return nil
}

// decodeError rebuilds the error of a non-2xx response, restoring the typed
// *provstore.DupKeyError where the server tagged one (typed errors stay
// unwrapped — callers match on them — so they carry no trace id).
func decodeError(resp *http.Response) error {
	trace := ""
	if resp.Request != nil {
		trace = resp.Request.Header.Get(headerTraceID)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var we wireError
	if json.Unmarshal(body, &we) == nil && we.Error != "" {
		if we.Kind == kindDupKey {
			loc, err := path.Parse(we.Loc)
			if err == nil {
				return &provstore.DupKeyError{Tid: we.Tid, Loc: loc}
			}
		}
		return &RemoteError{Status: resp.StatusCode, Msg: we.Error, Trace: trace}
	}
	return &RemoteError{Status: resp.StatusCode, Msg: string(body), Trace: trace}
}
