package provhttp_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtest"
)

// The end-to-end authentication acceptance tests: a pinned cpdb:// client
// over a live loopback daemon publishing a verified:// store whose inner
// reads can be made to lie (provtest.TamperBackend). Point lookups,
// streamed scans and server-side queries must all fail closed on tampered
// answers; honest answers must verify, advance the pin, and connect across
// committed transactions by consistency proofs.

// serveAuth wires AuthBackend -> TamperBackend -> mem behind a loopback
// server and opens a pinned verifying client against it.
func serveAuth(t *testing.T, pinFile string) (*provhttp.Client, *provauth.AuthBackend, *provtest.TamperBackend) {
	t.Helper()
	tamper := provtest.NewTamper(provstore.NewMemBackend(), nil)
	auth, err := provauth.New(tamper)
	if err != nil {
		t.Fatalf("provauth.New: %v", err)
	}
	hs := httptest.NewServer(provhttp.NewServer(auth))
	t.Cleanup(hs.Close)
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String() + "?verify=pin&pin=" + provstore.EscapeDSNPath(pinFile))
	if err != nil {
		t.Fatalf("OpenDSN: %v", err)
	}
	cli := b.(*provhttp.Client)
	t.Cleanup(func() { cli.Close() }) //nolint:errcheck // loopback teardown
	return cli, auth, tamper
}

// ingest appends the shared two-transaction fixture through the client and
// flushes, sealing both transactions.
func ingest(t *testing.T, cli *provhttp.Client) []provstore.Record {
	t.Helper()
	ctx := context.Background()
	recs := []provstore.Record{
		rec(1, provstore.OpInsert, "S/a", ""),
		rec(1, provstore.OpInsert, "S/a/x", ""),
		rec(1, provstore.OpInsert, "S/b", ""),
		rec(2, provstore.OpCopy, "T/c", "S/a"),
		rec(2, provstore.OpCopy, "T/c/x", "S/a/x"),
	}
	if err := cli.Append(ctx, recs[:3]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli.Append(ctx, recs[3:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return recs
}

// TestVerifiedLookupTamper: the ISSUE's headline acceptance — a pinned
// client detects a tampered record on a point lookup.
func TestVerifiedLookupTamper(t *testing.T) {
	ctx := context.Background()
	cli, _, tamper := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	ingest(t, cli)

	loc := path.MustParse("S/a")
	if _, ok, err := provstore.Lookup(ctx, cli, 1, loc); err != nil || !ok {
		t.Fatalf("honest Lookup: %v, %v", ok, err)
	}
	tamper.Arm(true)
	if _, _, err := provstore.Lookup(ctx, cli, 1, loc); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered Lookup: %v, want ErrVerify", err)
	}
	// NearestAncestor goes through the same proving path.
	if _, _, err := provstore.NearestAncestor(ctx, cli, 1, path.MustParse("S/a/x/deep")); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered NearestAncestor: %v, want ErrVerify", err)
	}
}

// TestVerifiedScanTamper: a tampered record inside a streamed ScanAll is
// detected mid-stream — the drain errors instead of quietly yielding lies.
func TestVerifiedScanTamper(t *testing.T) {
	ctx := context.Background()
	cli, _, tamper := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	recs := ingest(t, cli)

	got, err := provstore.CollectScan(cli.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatalf("honest ScanAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("honest ScanAll yielded %d records, want %d", len(got), len(recs))
	}

	tamper.Arm(true)
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.All())); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered ScanAll: %v, want ErrVerify", err)
	}
	// The narrower scans are held to the same contract.
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByTid(1))); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered ScanTid: %v, want ErrVerify", err)
	}
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByPrefix(path.MustParse("S")))); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered ScanLocPrefix: %v, want ErrVerify", err)
	}
}

// TestVerifiedQueryTamper: a server-side /v1/query select streams record
// rows with proofs; tampering is detected there too.
func TestVerifiedQueryTamper(t *testing.T) {
	ctx := context.Background()
	cli, _, tamper := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	recs := ingest(t, cli)

	q := &provplan.Query{Op: provplan.OpSelect}
	res, err := provplan.Collect(ctx, cli, q)
	if err != nil {
		t.Fatalf("honest query: %v", err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("honest query yielded %d records, want %d", len(res.Records), len(recs))
	}
	tamper.Arm(true)
	if _, err := provplan.Collect(ctx, cli, q); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered query: %v, want ErrVerify", err)
	}
}

// TestPinLifecycle: trust on first use persists the pin; later reads
// advance it over verified consistency proofs; the Authority surface
// connects two committed transactions end to end.
func TestPinLifecycle(t *testing.T) {
	ctx := context.Background()
	pinFile := filepath.Join(t.TempDir(), "root.pin")
	cli, auth, _ := serveAuth(t, pinFile)

	// Seal transaction 1, read — the pin initializes to root(1).
	if err := cli.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "S/a", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, ok, err := provstore.Lookup(ctx, cli, 1, path.MustParse("S/a")); err != nil || !ok {
		t.Fatalf("Lookup: %v, %v", ok, err)
	}
	pin1, have, err := provauth.LoadPin(pinFile)
	if err != nil || !have {
		t.Fatalf("pin after first read: %v, %v", have, err)
	}
	root1, _ := auth.Root(ctx)
	if pin1 != root1 {
		t.Fatalf("pin %v != server root %v", pin1, root1)
	}

	// Seal transaction 2; the next read must advance and persist the pin.
	if err := cli.Append(ctx, []provstore.Record{rec(2, provstore.OpInsert, "T/b", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.All())); err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	pin2, _, err := provauth.LoadPin(pinFile)
	if err != nil {
		t.Fatalf("pin after advance: %v", err)
	}
	if pin2.Tid != 2 || pin2.Size != 2 {
		t.Fatalf("pin did not advance: %+v", pin2)
	}

	// The remote Authority surface proves the two committed transactions
	// are one history.
	audit, err := cli.Consistency(ctx, pin1.Size, pin2.Size)
	if err != nil {
		t.Fatalf("Consistency: %v", err)
	}
	if err := provauth.VerifyConsistency(pin1, pin2, audit); err != nil {
		t.Fatalf("consistency across transactions: %v", err)
	}

	// And the proven stream verifies record by record against its root.
	n := 0
	for pr, err := range cli.ScanProven(ctx, provstore.All().After(0, path.Path{})) {
		if err != nil {
			t.Fatalf("ScanProven: %v", err)
		}
		if err := pr.Verify(); err != nil {
			t.Fatalf("proven record %v: %v", pr.Rec, err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("proven stream yielded %d records, want 2", n)
	}
}

// TestRollbackDetected: a server that lost (or rewrote) history can never
// satisfy a pin from before — the fresh-store-behind-the-same-address
// scenario, which TOFU alone would miss.
func TestRollbackDetected(t *testing.T) {
	ctx := context.Background()
	pinFile := filepath.Join(t.TempDir(), "root.pin")
	cli, _, _ := serveAuth(t, pinFile)
	ingest(t, cli) // pins root(2) on first read below
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.All())); err != nil {
		t.Fatalf("ScanAll: %v", err)
	}

	// A second daemon, same pin file, emptier store: every verified read
	// must fail, point and streamed alike.
	cli2, _, _ := serveAuth(t, pinFile)
	if err := cli2.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "S/a", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli2.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, _, err := provstore.Lookup(ctx, cli2, 1, path.MustParse("S/a")); err == nil {
		t.Fatal("Lookup against a rolled-back server succeeded")
	}
	if _, err := provstore.CollectScan(cli2.Scan(ctx, provstore.All())); err == nil {
		t.Fatal("ScanAll against a rolled-back server succeeded")
	}
	// The pin itself must not have regressed.
	pin, _, err := provauth.LoadPin(pinFile)
	if err != nil || pin.Size != 5 {
		t.Fatalf("pin after rollback attempt: %+v, %v", pin, err)
	}
}

// TestDivergedHistoryDetected: same sizes, different bytes — a server
// whose store was corrupted and whose tree was rebuilt over the corrupted
// records publishes roots that can never connect to the honest pin.
func TestDivergedHistoryDetected(t *testing.T) {
	ctx := context.Background()
	pinFile := filepath.Join(t.TempDir(), "root.pin")
	cli, _, _ := serveAuth(t, pinFile)
	ingest(t, cli)
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.All())); err != nil {
		t.Fatalf("ScanAll: %v", err)
	}

	// Second daemon: same records except one byte of history differs, tree
	// honestly rebuilt over the lie (the post-tamper restart scenario).
	cli2, _, _ := serveAuth(t, pinFile)
	recs := []provstore.Record{
		rec(1, provstore.OpInsert, "S/a", ""),
		rec(1, provstore.OpInsert, "S/a/x", ""),
		rec(1, provstore.OpDelete, "S/b", ""), // was OpInsert
		rec(2, provstore.OpCopy, "T/c", "S/a"),
		rec(2, provstore.OpCopy, "T/c/x", "S/a/x"),
	}
	if err := cli2.Append(ctx, recs[:3]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli2.Append(ctx, recs[3:]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli2.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := provstore.CollectScan(cli2.Scan(ctx, provstore.All())); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("scan of diverged history: %v, want ErrVerify", err)
	}
}

// TestVerifiedHorizon: records of the still-open transaction are invisible
// to verified reads until a flush seals them — a verified stream answers
// exactly as of its root.
func TestVerifiedHorizon(t *testing.T) {
	ctx := context.Background()
	cli, _, _ := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	ingest(t, cli)
	if err := cli.Append(ctx, []provstore.Record{rec(9, provstore.OpInsert, "S/open", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	got, err := provstore.CollectScan(cli.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("verified scan yielded %d records, want the 5 sealed ones", len(got))
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, err = provstore.CollectScan(cli.Scan(ctx, provstore.All())); err != nil || len(got) != 6 {
		t.Fatalf("after flush: %d records, %v, want 6", len(got), err)
	}
}

// lyingProxy fronts an honest daemon and, while armed, rewrites selected
// requests before forwarding them. This is the lying-server half of the
// threat model, which TamperBackend (lying beneath the tree) cannot
// exercise: everything the proxy relays back is legitimately in the log
// with a valid proof — it just is not the answer to the question the
// client asked.
func lyingProxy(t *testing.T, upstream string, armed *atomic.Bool, rewrite func(*http.Request)) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if armed.Load() {
			rewrite(r)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, upstream+r.URL.String(), r.Body)
		if err != nil {
			t.Errorf("proxy request: %v", err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("proxy forward: %v", err)
			return
		}
		defer resp.Body.Close() //nolint:errcheck // loopback teardown
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // test proxy
	}))
	t.Cleanup(hs.Close)
	return hs
}

// serveAuthProxied opens a pinned client whose every request crosses a
// lyingProxy on the way to an honest authenticated daemon.
func serveAuthProxied(t *testing.T, armed *atomic.Bool, rewrite func(*http.Request)) *provhttp.Client {
	t.Helper()
	auth, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatalf("provauth.New: %v", err)
	}
	hs := httptest.NewServer(provhttp.NewServer(auth))
	t.Cleanup(hs.Close)
	proxy := lyingProxy(t, hs.URL, armed, rewrite)
	pin := filepath.Join(t.TempDir(), "root.pin")
	b, err := provstore.OpenDSN("cpdb://" + proxy.Listener.Addr().String() + "?verify=pin&pin=" + provstore.EscapeDSNPath(pin))
	if err != nil {
		t.Fatalf("OpenDSN: %v", err)
	}
	cli := b.(*provhttp.Client)
	t.Cleanup(func() { cli.Close() }) //nolint:errcheck // loopback teardown
	return cli
}

// TestSubstitutedPointAnswerDetected: a lying server that answers a point
// read — a scan bounded to one key, or to one transaction's ancestors —
// with a different record, one genuinely in the log with a valid inclusion
// proof, is caught because the client binds the proven record to the scan
// it asked for (ScanSpec.Match), not just to the tree.
func TestSubstitutedPointAnswerDetected(t *testing.T) {
	ctx := context.Background()
	var armed atomic.Bool
	cli := serveAuthProxied(t, &armed, func(r *http.Request) {
		q := r.URL.Query()
		if r.URL.Path != "/v1/scan" || q.Get("kind") != "loc" && q.Get("kind") != "loc-ancestors" {
			return
		}
		// Answer every question with the validly provable {1, S/b}.
		q.Set("loc", "S/b")
		if q.Get("kind") == "loc" {
			q.Set("after_loc", "S/b")
		}
		r.URL.RawQuery = q.Encode()
	})
	ingest(t, cli)

	loc := path.MustParse("S/a")
	if _, ok, err := provstore.Lookup(ctx, cli, 1, loc); err != nil || !ok {
		t.Fatalf("honest Lookup: %v, %v", ok, err)
	}
	armed.Store(true)
	if _, _, err := provstore.Lookup(ctx, cli, 1, loc); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("substituted Lookup: %v, want ErrVerify", err)
	}
	// {1, S/b} is in the log but is no ancestor of S/a/x/deep: the
	// ancestor binding (exact tid, strict prefix of the query) rejects it.
	if _, _, err := provstore.NearestAncestor(ctx, cli, 1, path.MustParse("S/a/x/deep")); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("substituted NearestAncestor: %v, want ErrVerify", err)
	}
	armed.Store(false)
	if _, ok, err := provstore.Lookup(ctx, cli, 1, loc); err != nil || !ok {
		t.Fatalf("Lookup after disarm: %v, %v", ok, err)
	}
}

// TestPaddedFilteredStreamDetected: a lying server that answers a filtered
// scan with the whole table — every row in the log, every proof valid —
// is caught because the client checks each verified record against the
// filter it requested.
func TestPaddedFilteredStreamDetected(t *testing.T) {
	ctx := context.Background()
	var armed atomic.Bool
	cli := serveAuthProxied(t, &armed, func(r *http.Request) {
		// Serve the full proven table for a tid-filtered scan, and a
		// resumed scan from its start.
		if r.URL.Path != "/v1/scan" {
			return
		}
		q := r.URL.Query()
		if q.Get("kind") == "tid" {
			q.Set("kind", "all")
			q.Del("tid")
		}
		q.Del("after_tid")
		q.Del("after_loc")
		r.URL.RawQuery = q.Encode()
	})
	ingest(t, cli)

	got, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByTid(2)))
	if err != nil {
		t.Fatalf("honest ScanTid: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("honest ScanTid yielded %d records, want 2", len(got))
	}
	armed.Store(true)
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByTid(2))); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("padded ScanTid: %v, want ErrVerify", err)
	}
	// The resume key is part of the question too: records at or before it,
	// each validly proven, do not belong in the answer.
	resumed := provstore.All().After(1, path.MustParse("S/b"))
	if _, err := provstore.CollectScan(cli.Scan(ctx, resumed)); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("padded resumed scan: %v, want ErrVerify", err)
	}
	armed.Store(false)
	if got, err := provstore.CollectScan(cli.Scan(ctx, resumed)); err != nil || len(got) != 2 {
		t.Fatalf("honest resumed scan: %d records, %v; want 2", len(got), err)
	}
}

// TestOpenRecordMidStreamDoesNotTruncate: scan orderings other than
// (Tid, Loc) can interleave an open transaction's records among sealed
// ones, so a record beyond the snapshot root must be skipped, not treated
// as a stream cut-off — a cut-off would silently drop sealed records.
func TestOpenRecordMidStreamDoesNotTruncate(t *testing.T) {
	ctx := context.Background()
	cli, _, _ := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	// Sealed: {1, S/a} and {1, S/b}. Open: {9, S/a/x}, which sorts
	// between them in the (Loc, Tid) order ScanLocPrefix streams in.
	if err := cli.Append(ctx, []provstore.Record{
		rec(1, provstore.OpInsert, "S/a", ""),
		rec(1, provstore.OpInsert, "S/b", ""),
	}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cli.Append(ctx, []provstore.Record{rec(9, provstore.OpInsert, "S/a/x", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	got, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByPrefix(path.MustParse("S"))))
	if err != nil {
		t.Fatalf("ScanLocPrefix: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("verified prefix scan yielded %d records, want both sealed ones", len(got))
	}
	for _, r := range got {
		if r.Tid != 1 {
			t.Fatalf("unsealed record %v leaked into the verified stream", r)
		}
	}

	// Same shape through /v1/query: descending order puts the open record
	// first, where a cut-off would drop the entire sealed answer.
	res, err := provplan.Collect(ctx, cli, &provplan.Query{Op: provplan.OpSelect, Desc: true})
	if err != nil {
		t.Fatalf("descending query: %v", err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("descending verified query yielded %d records, want 2", len(res.Records))
	}
	for _, r := range res.Records {
		if r.Tid != 1 {
			t.Fatalf("unsealed record %v leaked into the verified query", r)
		}
	}
}

// TestProvenPagingAcrossOpenTransaction: limit bounds the lines a proven
// stream writes, not the records its cursor pulled — so a page over records
// of the open transaction, which the stream skips, is still full of provable
// records or is the end. Paging a (Loc, Tid)-ordered scan one record at a
// time must terminate and yield exactly the unpaged proven stream; a page
// that is empty yet says "more" would leave the pager no key to resume from.
func TestProvenPagingAcrossOpenTransaction(t *testing.T) {
	ctx := context.Background()
	cli, _, _ := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	// Sealed: tid 1. Open: tid 9, whose records sort between, after and
	// among the sealed ones in (Loc, Tid) order.
	if err := cli.Append(ctx, []provstore.Record{
		rec(1, provstore.OpInsert, "S/a", ""),
		rec(1, provstore.OpInsert, "S/b", ""),
		rec(1, provstore.OpInsert, "S/c", ""),
	}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cli.Append(ctx, []provstore.Record{
		rec(9, provstore.OpInsert, "S/a/x", ""),
		rec(9, provstore.OpInsert, "S/a/y", ""),
		rec(9, provstore.OpInsert, "S/c/z", ""),
	}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	type line struct {
		R *struct {
			Tid int64  `json:"tid"`
			Loc string `json:"loc"`
		} `json:"r"`
		P    string `json:"p"`
		EOF  bool   `json:"eof"`
		N    int    `json:"n"`
		More bool   `json:"more"`
	}
	type proven struct {
		tid    int64
		loc, p string
	}
	get := func(params string) (lines []proven, more bool) {
		t.Helper()
		resp, err := http.Get("http://" + cli.Addr() + "/v1/scan?kind=loc-prefix&loc=S&proofs=1" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test read
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", params, resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var l line
			if err := dec.Decode(&l); err != nil {
				t.Fatalf("GET %s: %v", params, err)
			}
			if l.EOF {
				if l.N != len(lines) {
					t.Fatalf("GET %s: terminator n=%d for %d records", params, l.N, len(lines))
				}
				return lines, l.More
			}
			if l.R == nil || l.P == "" {
				t.Fatalf("GET %s: line without record or proof: %+v", params, l)
			}
			lines = append(lines, proven{l.R.Tid, l.R.Loc, l.P})
		}
	}

	want, more := get("")
	if len(want) != 3 || more {
		t.Fatalf("unpaged proven stream: %d records, more=%v; want the 3 sealed ones", len(want), more)
	}
	var got []proven
	resume := ""
	for pages := 0; ; pages++ {
		if pages > len(want) {
			t.Fatalf("paging did not terminate after %d pages: %v", pages, got)
		}
		page, more := get("&limit=1" + resume)
		got = append(got, page...)
		if !more {
			break
		}
		if len(page) != 1 {
			t.Fatalf("page %d says more but carries %d records: no key to resume from", pages, len(page))
		}
		resume = fmt.Sprintf("&after_tid=%d&after_loc=%s", page[0].tid, page[0].loc)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged proven stream differs from the unpaged one:\n got: %v\nwant: %v", got, want)
	}
}

// TestProofsFromUnauthenticatedStore: asking a plain store for proofs is a
// loud 400, never a silently unproven stream.
func TestProofsFromUnauthenticatedStore(t *testing.T) {
	ctx := context.Background()
	hs := httptest.NewServer(provhttp.NewServer(provstore.NewMemBackend()))
	t.Cleanup(hs.Close)
	pin := filepath.Join(t.TempDir(), "root.pin")
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String() + "?verify=pin&pin=" + provstore.EscapeDSNPath(pin))
	if err != nil {
		t.Fatalf("OpenDSN: %v", err)
	}
	defer b.(*provhttp.Client).Close() //nolint:errcheck // loopback teardown

	var re *provhttp.RemoteError
	if _, _, err := provstore.Lookup(ctx, b, 1, path.MustParse("S/a")); !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("verified Lookup against plain store: %v, want HTTP 400", err)
	}
}

// TestVerifyDSNErrors pins the verify DSN parameter surface.
func TestVerifyDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"cpdb://127.0.0.1:7070?verify=pin",          // missing pin file
		"cpdb://127.0.0.1:7070?pin=/tmp/p",          // pin without verify
		"cpdb://127.0.0.1:7070?verify=full&pin=/p",  // unknown mode
		"cpdb://127.0.0.1:7070?verify=pin&pin=&p=1", // unknown param
	} {
		if b, err := provstore.OpenDSN(dsn); err == nil {
			provstore.Close(b) //nolint:errcheck // unexpected success
			t.Errorf("OpenDSN(%q) succeeded", dsn)
		}
	}
}

// TestPinFileFormat: the persisted pin is the one-line Root.String() form.
func TestPinFileFormat(t *testing.T) {
	ctx := context.Background()
	pinFile := filepath.Join(t.TempDir(), "root.pin")
	cli, auth, _ := serveAuth(t, pinFile)
	ingest(t, cli)
	if _, _, err := provstore.Lookup(ctx, cli, 1, path.MustParse("S/a")); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	data, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatalf("reading pin: %v", err)
	}
	root, _ := auth.Root(ctx)
	if strings.TrimSpace(string(data)) != root.String() {
		t.Fatalf("pin file %q, want %q", data, root.String())
	}
}

// TestVerifiedPointReadOfOpenTransaction: a pinned client asked for a record
// of the still-open transaction — which has no proof until a flush seals it
// — fails closed with the server's 409, for the record itself and for it as
// the nearest ancestor; it never answers "not found". A key the open
// transaction does not hold is not found, and once a flush seals the record
// it verifies.
func TestVerifiedPointReadOfOpenTransaction(t *testing.T) {
	ctx := context.Background()
	cli, _, _ := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	ingest(t, cli)
	open := path.MustParse("S/open")
	if err := cli.Append(ctx, []provstore.Record{rec(9, provstore.OpInsert, "S/open", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	var re *provhttp.RemoteError
	if r, ok, err := provstore.Lookup(ctx, cli, 9, open); !errors.As(err, &re) || re.Status != http.StatusConflict || ok {
		t.Fatalf("Lookup of an open record = %v, %v, %v; want HTTP 409", r, ok, err)
	}
	if r, ok, err := provstore.NearestAncestor(ctx, cli, 9, open.Child("x")); !errors.As(err, &re) || re.Status != http.StatusConflict || ok {
		t.Fatalf("NearestAncestor of an open record = %v, %v, %v; want HTTP 409", r, ok, err)
	}
	if r, ok, err := provstore.Lookup(ctx, cli, 9, path.MustParse("S/never")); err != nil || ok {
		t.Fatalf("Lookup of a key the open transaction lacks = %v, %v, %v; want not found", r, ok, err)
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if r, ok, err := provstore.Lookup(ctx, cli, 9, open); err != nil || !ok || !r.Loc.Equal(open) {
		t.Fatalf("Lookup after the flush sealed it = %v, %v, %v; want the record", r, ok, err)
	}
}

// TestVerifiedRangeReadsSkipOpenTransaction: a range read over a pinned
// client answers as of the server's root however far its bound reaches —
// the open transaction's records are passed over, not a failure. Records'
// horizon (the store's MaxTid, which is the open transaction) and a
// client-side plan over a batching layer, asof that transaction, both
// return the sealed answer; only a read confined to the open transaction
// fails closed (TestVerifiedPointReadOfOpenTransaction).
func TestVerifiedRangeReadsSkipOpenTransaction(t *testing.T) {
	ctx := context.Background()
	cli, _, _ := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	sealed := ingest(t, cli)
	if err := cli.Append(ctx, []provstore.Record{rec(9, provstore.OpInsert, "S/a/open", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st, err := cli.Stat(ctx)
	if err != nil || st.MaxTid != 9 {
		t.Fatalf("Stat = %+v, %v; want MaxTid 9", st, err)
	}
	for _, spec := range []provstore.ScanSpec{
		provstore.All().Until(st.MaxTid),
		provstore.All().After(1, path.MustParse("S/b")).Until(st.MaxTid),
		provstore.ByPrefix(path.MustParse("S/a")).Until(st.MaxTid),
	} {
		got, err := provstore.CollectScan(cli.Scan(ctx, spec))
		var want []provstore.Record
		for _, r := range sealed {
			if spec.Match(r) {
				want = append(want, r)
			}
		}
		slices.SortFunc(want, spec.Order())
		if err != nil || !slices.EqualFunc(got, want, func(a, b provstore.Record) bool { return a.String() == b.String() }) {
			t.Errorf("%v = %v, %v; want the sealed records %v", spec, got, err, want)
		}
	}
	batched := provstore.NewBatching(cli, 100)
	for _, asof := range []int64{9, 20} {
		res, err := provplan.Collect(ctx, batched, &provplan.Query{Op: provplan.OpMod, Path: "S/a", AsOf: asof})
		if err != nil || !slices.Equal(res.Tids, []int64{1}) {
			t.Errorf("client-side mod S/a asof %d = %v, %v; want [1]", asof, res, err)
		}
	}
}
