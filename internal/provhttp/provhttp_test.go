package provhttp_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/provhttp"
	"repro/internal/provrepl"
	"repro/internal/provstore"
	"repro/internal/provtest"
)

// serve mounts a Server over inner on a loopback listener and returns a
// Client opened through the cpdb:// driver — the full production path.
func serve(t *testing.T, inner provstore.Backend) (*provhttp.Client, *provhttp.Server) {
	t.Helper()
	srv := provhttp.NewServer(inner)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli, ok := b.(*provhttp.Client)
	if !ok {
		t.Fatalf("cpdb:// opened %T", b)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, srv
}

func rec(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
	r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

// TestClientBackendRoundTrip drives every Backend method through a loopback
// server and checks the answers against the same calls on the inner store.
func TestClientBackendRoundTrip(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, _ := serve(t, inner)

	recs := []provstore.Record{
		rec(1, provstore.OpDelete, "T/c5", ""),
		rec(1, provstore.OpCopy, "T/c1/y", "S1/a1/y"),
		rec(2, provstore.OpInsert, "T/c2", ""),
		rec(2, provstore.OpCopy, "T/c2/x", "S1/a2/x"),
		rec(3, provstore.OpInsert, "T/c2/x/deep", ""),
	}
	if err := cli.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}

	if st, err := cli.Stat(ctx); err != nil || st.Count != len(recs) {
		t.Fatalf("Count = %d, %v; want %d", st.Count, err, len(recs))
	}
	st, _ := inner.Stat(ctx)
	wantBytes := st.Bytes
	if st, err := cli.Stat(ctx); err != nil || st.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, %v; want %d", st.Bytes, err, wantBytes)
	}
	if st, err := cli.Stat(ctx); err != nil || st.MaxTid != 3 {
		t.Fatalf("MaxTid = %d, %v", st.MaxTid, err)
	}
	tids, err := provstore.Tids(ctx, cli)
	if err != nil || fmt.Sprint(tids) != "[1 2 3]" {
		t.Fatalf("Tids = %v, %v", tids, err)
	}

	// Point queries: hit, miss, and hierarchical ancestor.
	got, ok, err := provstore.Lookup(ctx, cli, 1, path.MustParse("T/c1/y"))
	if err != nil || !ok || got.String() != recs[1].String() {
		t.Fatalf("Lookup hit = %v %v %v", got, ok, err)
	}
	if _, ok, err := provstore.Lookup(ctx, cli, 9, path.MustParse("T/c1/y")); err != nil || ok {
		t.Fatalf("Lookup miss: found=%v err=%v", ok, err)
	}
	anc, ok, err := provstore.NearestAncestor(ctx, cli, 2, path.MustParse("T/c2/x/deep/leaf"))
	if err != nil || !ok || anc.Loc.String() != "T/c2/x" {
		t.Fatalf("NearestAncestor = %v %v %v", anc, ok, err)
	}

	// Scans, each against the inner store's answer.
	scans := []struct {
		name     string
		viaCli   func() ([]provstore.Record, error)
		viaInner func() ([]provstore.Record, error)
	}{
		{"ScanTid", func() ([]provstore.Record, error) { return provstore.CollectScan(cli.Scan(ctx, provstore.ByTid(2))) },
			func() ([]provstore.Record, error) { return provstore.CollectScan(inner.Scan(ctx, provstore.ByTid(2))) }},
		{"ScanLoc", func() ([]provstore.Record, error) {
			return provstore.CollectScan(cli.Scan(ctx, provstore.ByLoc(path.MustParse("T/c2/x"))))
		},
			func() ([]provstore.Record, error) {
				return provstore.CollectScan(inner.Scan(ctx, provstore.ByLoc(path.MustParse("T/c2/x"))))
			}},
		{"ScanLocPrefix", func() ([]provstore.Record, error) {
			return provstore.CollectScan(cli.Scan(ctx, provstore.ByPrefix(path.MustParse("T/c2"))))
		},
			func() ([]provstore.Record, error) {
				return provstore.CollectScan(inner.Scan(ctx, provstore.ByPrefix(path.MustParse("T/c2"))))
			}},
		{"ScanLocWithAncestors", func() ([]provstore.Record, error) {
			return provstore.CollectScan(cli.Scan(ctx, provstore.WithAncestors(path.MustParse("T/c2/x/deep"))))
		}, func() ([]provstore.Record, error) {
			return provstore.CollectScan(inner.Scan(ctx, provstore.WithAncestors(path.MustParse("T/c2/x/deep"))))
		}},
		{"ScanAll", func() ([]provstore.Record, error) { return provstore.CollectScan(cli.Scan(ctx, provstore.All())) },
			func() ([]provstore.Record, error) { return provstore.CollectScan(inner.Scan(ctx, provstore.All())) }},
	}
	for _, sc := range scans {
		gotRecs, err := sc.viaCli()
		if err != nil {
			t.Fatalf("%s via client: %v", sc.name, err)
		}
		wantRecs, err := sc.viaInner()
		if err != nil {
			t.Fatalf("%s via inner: %v", sc.name, err)
		}
		if fmt.Sprint(gotRecs) != fmt.Sprint(wantRecs) {
			t.Errorf("%s mismatch:\n via cpdb://: %v\n in-process:  %v", sc.name, gotRecs, wantRecs)
		}
	}
}

// TestDupKeyErrorRoundTrips: the typed {Tid, Loc} key violation must survive
// the wire, because the batching layer and callers match on *DupKeyError.
func TestDupKeyErrorRoundTrips(t *testing.T) {
	ctx := context.Background()
	cli, _ := serve(t, provstore.NewMemBackend())
	r := rec(7, provstore.OpInsert, "T/dup", "")
	if err := cli.Append(ctx, []provstore.Record{r}); err != nil {
		t.Fatal(err)
	}
	err := cli.Append(ctx, []provstore.Record{r})
	var dup *provstore.DupKeyError
	if !errors.As(err, &dup) {
		t.Fatalf("duplicate append returned %T (%v), want *DupKeyError", err, err)
	}
	if dup.Tid != 7 || dup.Loc.String() != "T/dup" {
		t.Fatalf("DupKeyError carried (%d, %s)", dup.Tid, dup.Loc)
	}
}

// TestFig5Equivalence runs the paper's worked example through a tracker
// writing over cpdb:// and requires the stored tables to be byte-identical
// to an in-process mem:// run, for all four methods — the end-to-end
// equivalence bar of the subsystem.
func TestFig5Equivalence(t *testing.T) {
	for _, m := range provstore.AllMethods {
		t.Run(m.String(), func(t *testing.T) {
			runOne := func(b provstore.Backend) []provstore.Record {
				tr := provstore.MustNew(m, provstore.Config{Backend: b, StartTid: figures.FirstTid})
				f := figures.Forest()
				var err error
				if m.Deferred() {
					_, err = provtest.Run(tr, f, figures.Sequence(), 0)
				} else {
					_, err = provtest.RunPerOp(tr, f, figures.Sequence())
				}
				if err != nil {
					t.Fatal(err)
				}
				recs, err := provtest.AllSorted(b)
				if err != nil {
					t.Fatal(err)
				}
				return recs
			}

			cli, _ := serve(t, provstore.NewMemBackend())
			viaNet := runOne(cli)
			viaMem := runOne(provstore.NewMemBackend())

			render := func(recs []provstore.Record) string {
				var b strings.Builder
				for _, r := range recs {
					fmt.Fprintln(&b, r)
				}
				return b.String()
			}
			if render(viaNet) != render(viaMem) {
				t.Errorf("method %s: cpdb:// table differs from mem://\nnet:\n%smem:\n%s",
					m, render(viaNet), render(viaMem))
			}
		})
	}
}

// blockingBackend parks scans until their context is cancelled — a stand-in
// for a slow store behind the server, to prove client hang-up propagates.
type blockingBackend struct {
	provstore.Backend
	entered chan struct{}
	exited  chan struct{}
}

func (b *blockingBackend) Scan(ctx context.Context, _ provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	return func(yield func(provstore.Record, error) bool) {
		b.entered <- struct{}{}
		<-ctx.Done()
		b.exited <- struct{}{}
		yield(provstore.Record{}, ctx.Err())
	}
}

// TestCancelMidScanAbortsServerWork cancels a client context while the
// server-side ScanLocPrefix is parked: the client must surface
// context.Canceled, the server-side backend call must observe cancellation
// (client hang-up reaches the store), and no goroutines may leak.
func TestCancelMidScanAbortsServerWork(t *testing.T) {
	bb := &blockingBackend{
		Backend: provstore.NewMemBackend(),
		entered: make(chan struct{}, 1),
		exited:  make(chan struct{}, 1),
	}
	cli, _ := serve(t, bb)

	// Warm the connection pool so the leak baseline includes it.
	if _, err := cli.Stat(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByPrefix(path.MustParse("T"))))
		done <- err
	}()

	select {
	case <-bb.entered: // server-side scan is parked on our context
	case <-time.After(3 * time.Second):
		t.Fatal("server never entered ScanLocPrefix")
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled scan never returned to the client")
	}
	select {
	case <-bb.exited: // the server-side work was aborted, not abandoned
	case <-time.After(3 * time.Second):
		t.Fatal("server-side scan never observed the cancellation")
	}
	waitGoroutines(t, base)
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d before cancellation", runtime.NumGoroutine(), base)
}

// frame is one frame of a row stream: kind and body behind their uvarint
// length.
func frame(kind byte, body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(1+len(body))), append([]byte{kind}, body...)...)
}

// recordFrame is the record frame of r, with no proof.
func recordFrame(r provstore.Record) []byte { return frame('r', r.AppendBinary(nil)) }

// TestTruncatedStreamDetected: a scan stream that dies before the eof
// terminator must be reported as an error, not returned as a short result.
func TestTruncatedStreamDetected(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", provhttp.ContentTypeFrames)
		// Two records, then silence — no terminator frame.
		w.Write(recordFrame(rec(1, provstore.OpInsert, "T/a", ""))) //nolint:errcheck // test server
		w.Write(recordFrame(rec(1, provstore.OpInsert, "T/b", ""))) //nolint:errcheck // test server
	}))
	defer fake.Close()
	cli := provhttp.NewClient(fake.Listener.Addr().String())
	defer cli.Close()
	_, err := provstore.CollectScan(cli.Scan(context.Background(), provstore.ByTid(1)))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream returned %v, want truncation error", err)
	}
}

// TestRemoteFlushSemantics: Flush (and therefore a remote Session.Close)
// must push the *server's* group-commit buffer down to its store, and Close
// must not close the server's backend — the daemon owns it.
func TestRemoteFlushSemantics(t *testing.T) {
	ctx := context.Background()
	mem := provstore.NewMemBackend()
	buffered := provstore.NewBatching(mem, 100) // holds appends until flushed
	cli, _ := serve(t, buffered)

	if err := cli.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	if st, _ := mem.Stat(ctx); st.Count != 0 {
		t.Fatalf("append reached the store before flush (count=%d)", st.Count)
	}
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := mem.Stat(ctx); st.Count != 1 {
		t.Fatalf("flush did not reach the store (count=%d)", st.Count)
	}

	// Close flushes too, and leaves the server's store open for others.
	if err := cli.Append(ctx, []provstore.Record{rec(2, provstore.OpInsert, "T/b", "")}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := mem.Stat(ctx); st.Count != 2 {
		t.Fatalf("close did not flush (count=%d)", st.Count)
	}
	if err := buffered.Append(ctx, []provstore.Record{rec(3, provstore.OpInsert, "T/c", "")}); err != nil {
		t.Fatalf("server store unusable after client close: %v", err)
	}
}

// TestConcurrentClients hammers one server with concurrent writers and
// readers through independent connections (run under -race in CI).
func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	cli, _ := serve(t, provstore.NewShardedMem(4))
	const writers, perW = 4, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				r := rec(int64(i+1), provstore.OpInsert, fmt.Sprintf("T/w%d/n%d", i, j), "")
				if err := cli.Append(ctx, []provstore.Record{r}); err != nil {
					errs[i] = err
					return
				}
				if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByPrefix(path.MustParse(fmt.Sprintf("T/w%d", i))))); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st, err := cli.Stat(ctx); err != nil || st.Count != writers*perW {
		t.Fatalf("Count = %d, %v; want %d", st.Count, err, writers*perW)
	}
}

// TestServerStats checks the expvar-style counters move and are served.
func TestServerStats(t *testing.T) {
	ctx := context.Background()
	cli, srv := serve(t, provstore.NewMemBackend())
	if err := cli.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	if _, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByTid(1))); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st["endpoint.append"] != 1 || st["records_appended"] != 1 {
		t.Errorf("append counters: %v", st)
	}
	if st["endpoint.scan"] != 1 || st["records_streamed"] != 1 {
		t.Errorf("scan counters: %v", st)
	}
	if st["requests"] < 2 {
		t.Errorf("requests = %d", st["requests"])
	}

	// The counters are also an endpoint.
	resp, err := http.Get("http://" + cli.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served["endpoint.append"] != 1 {
		t.Errorf("served stats: %v", served)
	}
}

// TestBatchingOverRemoteFlushesInOneRoundTrip: a client-side batching layer
// over cpdb:// sends one POST /v1/append per flush, not one per buffered
// transaction — Config.BatchSize's "one store round trip per batch".
func TestBatchingOverRemoteFlushesInOneRoundTrip(t *testing.T) {
	ctx := context.Background()
	cli, srv := serve(t, provstore.NewMemBackend())
	b := provstore.NewBatching(cli, 64)
	for tid := int64(1); tid <= 5; tid++ {
		if err := b.Append(ctx, []provstore.Record{rec(tid, provstore.OpInsert, "T/a", ""), rec(tid, provstore.OpInsert, "T/b", "")}); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Stats()["endpoint.append"]
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if got := st["endpoint.append"] - before; got != 1 || st["records_appended"] != 10 {
		t.Errorf("flushing five transactions cost %d appends carrying %d records, want 1 carrying 10", got, st["records_appended"])
	}
}

// TestRemoteErrors: unknown endpoints and malformed parameters come back as
// typed RemoteErrors carrying the HTTP status.
func TestRemoteErrors(t *testing.T) {
	ctx := context.Background()
	cli, _ := serve(t, provstore.NewMemBackend())

	// Bad tid parameter → 400.
	_, err := provstore.CollectScan(cli.Scan(ctx, provstore.ByTid(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + cli.Addr() + "/v1/scan?kind=tid&tid=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tid: HTTP %d, want 400", resp.StatusCode)
	}

	// A server that isn't there: connection errors surface on first use.
	dead, err := provstore.OpenDSN("cpdb://127.0.0.1:1")
	if err != nil {
		t.Fatalf("opening a DSN must not dial: %v", err)
	}
	if _, err := dead.Stat(ctx); err == nil {
		t.Error("Count against a dead server succeeded")
	}
}

// TestScanEndpointSurface: /v1/scan takes exactly a ScanSpec's parameters
// (plus its own limit, proofs and since) — anything else is a 400, never a
// wider scan than the one asked for, whether or not the server has a page
// cache to answer limit-bounded pages from; /v1/scan-all is the same handler
// with kind defaulting to all; and the per-kind, per-scalar and point
// endpoints it and /v1/stat replaced are gone.
func TestScanEndpointSurface(t *testing.T) {
	for name, opts := range map[string][]provhttp.ServerOption{
		"streaming":  nil,
		"page-cache": {provhttp.WithPageCache(1 << 20)},
	} {
		t.Run(name, func(t *testing.T) {
			inner := provstore.NewMemBackend()
			if err := inner.Append(context.Background(), []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(provhttp.NewServer(inner, opts...))
			defer hs.Close()
			for pathAndQuery, want := range map[string]int{
				"/v1/scan?kind=all":                    http.StatusOK,
				"/v1/scan?kind=tid&tid=1&limit=5":      http.StatusOK,
				"/v1/scan?kind=loc-prefix&loc=":        http.StatusOK,
				"/v1/scan-all":                         http.StatusOK,
				"/v1/scan-all?limit=256":               http.StatusOK,
				"/v1/scan-all?after_tid=1&after_loc=T": http.StatusOK,
				"/v1/scan-all?kind=tid&tid=1":          http.StatusOK,
				"/v1/stat":                             http.StatusOK,
				"/v1/scan":                             http.StatusBadRequest,
				"/v1/scan?kind=everything":             http.StatusBadRequest,
				"/v1/scan?kind=tid":                    http.StatusBadRequest,
				"/v1/scan?kind=tid&tid=one":            http.StatusBadRequest,
				"/v1/scan?kind=all&tid=1":              http.StatusBadRequest,
				"/v1/scan?kind=loc&loc=T//a":           http.StatusBadRequest,
				"/v1/scan?kind=all&after_loc=T":        http.StatusBadRequest,
				"/v1/scan?kind=all&limit=0":            http.StatusBadRequest,
				"/v1/scan?kind=all&limit=5&tid=1":      http.StatusBadRequest,
				"/v1/scan-all?tid=1":                   http.StatusBadRequest,
				"/v1/scan?kind=all&proofs=1":           http.StatusBadRequest, // not an authenticated store
				"/v1/scan?kind=all&limit=5&proofs=1":   http.StatusBadRequest,
				"/v1/scan?kind=all&limit=5&proofs=yes": http.StatusBadRequest,
				"/v1/scan?kind=all&since=3":            http.StatusBadRequest, // since requires proofs=1
				"/v1/scan?kind=all&limit=5&since=3":    http.StatusBadRequest,
				"/v1/scan?kind=all&until=3":            http.StatusOK,
				"/v1/scan?kind=loc&loc=T/a&until=1":    http.StatusOK,
				"/v1/scan?kind=all&limit=5&until=0":    http.StatusOK,
				"/v1/scan?kind=all&until=soon":         http.StatusBadRequest,
				"/v1/scan?kind=all&until=1&until=2":    http.StatusBadRequest,
				"/v1/lookup?tid=1&loc=T/a":             http.StatusNotFound,
				"/v1/ancestor?tid=1&loc=T/a/x":         http.StatusNotFound,
				"/v1/scan/tid?tid=1":                   http.StatusNotFound,
				"/v1/scan/prefix?prefix=T":             http.StatusNotFound,
				"/v1/tids":                             http.StatusNotFound,
				"/v1/maxtid":                           http.StatusNotFound,
				"/v1/count":                            http.StatusNotFound,
				"/v1/bytes":                            http.StatusNotFound,
			} {
				resp, err := http.Get(hs.URL + pathAndQuery)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("GET %s: HTTP %d, want %d", pathAndQuery, resp.StatusCode, want)
				}
			}
		})
	}
}

// TestDriverDSNForms exercises the cpdb:// driver's DSN validation.
func TestDriverDSNForms(t *testing.T) {
	for _, bad := range []string{
		"cpdb://",                       // no authority
		"cpdb://hostonly",               // missing port
		"cpdb://host:7070?timout=5s",    // typo'd parameter
		"cpdb://host:7070?timeout=fast", // malformed duration
		"cpdb://host:7070?timeout=-1s",  // non-positive duration
		"cpdb://host:7070/extra?x",      // SplitHostPort rejects the path
	} {
		if _, err := provstore.OpenDSN(bad); err == nil {
			t.Errorf("OpenDSN(%q) succeeded", bad)
		}
	}
	b, err := provstore.OpenDSN("cpdb://127.0.0.1:7070?timeout=30s")
	if err != nil {
		t.Fatalf("cpdb:// with timeout: %v", err)
	}
	b.(*provhttp.Client).Close() //nolint:errcheck // no server; close releases conns

	found := false
	for _, s := range provstore.Drivers() {
		if s == "cpdb" {
			found = true
		}
	}
	if !found {
		t.Errorf("cpdb scheme not registered: %v", provstore.Drivers())
	}
}

// TestScanAllEndpointSingleRoundTrip: the client's ScanAll must stream the
// whole (Tid, Loc)-ordered table in exactly one /v1/scan-all round trip,
// matching the inner store's cursor byte for byte.
func TestScanAllEndpointSingleRoundTrip(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, srv := serve(t, inner)
	for tid := int64(1); tid <= 4; tid++ {
		if err := cli.Append(ctx, []provstore.Record{
			rec(tid, provstore.OpInsert, fmt.Sprintf("T/b%d", tid), ""),
			rec(tid, provstore.OpInsert, fmt.Sprintf("T/a%d", tid), ""),
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := provstore.CollectScan(cli.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := provstore.CollectScan(inner.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ScanAll via cpdb://\n%v\nvs inner\n%v", got, want)
	}
	st := srv.Stats()
	if st["endpoint.scan"] != 1 {
		t.Errorf("scan counter = %d, want 1 (stats %v)", st["endpoint.scan"], st)
	}
	if st["cursors_open"] != 0 {
		t.Errorf("cursors_open = %d after a drained scan", st["cursors_open"])
	}
}

// TestScanAllKeysetPagination drives the resumable server cursor manually:
// limit= pages the stream, "more":true marks a cut, and after_tid/after_loc
// resumes exactly after the last delivered key; the concatenated pages must
// equal the unpaginated stream.
func TestScanAllKeysetPagination(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, _ := serve(t, inner)
	for tid := int64(1); tid <= 3; tid++ {
		for i := 0; i < 3; i++ {
			if err := cli.Append(ctx, []provstore.Record{
				rec(tid, provstore.OpInsert, fmt.Sprintf("T/t%d/n%d", tid, i), ""),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := provstore.CollectScan(inner.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}

	page := func(afterTid int64, afterLoc string, limit int) (recs []provstore.Record, n int, more bool) {
		t.Helper()
		u := fmt.Sprintf("http://%s/v1/scan-all?limit=%d", cli.Addr(), limit)
		if afterLoc != "" {
			u += fmt.Sprintf("&after_tid=%d&after_loc=%s", afterTid, afterLoc)
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan-all page: HTTP %d", resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var line struct {
				R *struct {
					Tid          int64
					Op, Loc, Src string
				} `json:"r"`
				EOF  bool `json:"eof"`
				N    int  `json:"n"`
				More bool `json:"more"`
			}
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("page decode: %v", err)
			}
			if line.EOF {
				return recs, line.N, line.More
			}
			if line.R == nil {
				t.Fatal("blank line in page")
			}
			recs = append(recs, rec(line.R.Tid, provstore.OpKind(line.R.Op[0]), line.R.Loc, line.R.Src))
		}
	}

	var all []provstore.Record
	afterTid, afterLoc := int64(0), ""
	pages := 0
	for {
		recs, n, more := page(afterTid, afterLoc, 4)
		if n != len(recs) {
			t.Fatalf("terminator n=%d for %d records", n, len(recs))
		}
		all = append(all, recs...)
		pages++
		if !more {
			break
		}
		if len(recs) == 0 {
			t.Fatal("more=true with an empty page")
		}
		last := recs[len(recs)-1]
		afterTid, afterLoc = last.Tid, last.Loc.String()
	}
	if pages != 3 { // 9 records in pages of 4 → 4+4+1
		t.Errorf("pagination took %d pages, want 3", pages)
	}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Errorf("paginated concatenation differs:\n%v\nwant\n%v", all, want)
	}
}

// TestScanAllTruncationDetected: a scan-all cursor whose stream dies before
// the terminator must yield a truncation error, not end as a short result.
func TestScanAllTruncationDetected(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", provhttp.ContentTypeFrames)
		w.Write(recordFrame(rec(1, provstore.OpInsert, "T/a", ""))) //nolint:errcheck // test server
		w.Write(recordFrame(rec(2, provstore.OpInsert, "T/b", ""))) //nolint:errcheck // test server
		// No terminator: the connection just ends.
	}))
	defer fake.Close()
	cli := provhttp.NewClient(fake.Listener.Addr().String())
	defer cli.Close()
	n := 0
	var got error
	for _, err := range cli.Scan(context.Background(), provstore.All()) {
		if err != nil {
			got = err
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d records before truncation, want 2", n)
	}
	if got == nil || !strings.Contains(got.Error(), "truncated") {
		t.Fatalf("truncated cursor yielded %v, want truncation error", got)
	}
}

// TestClientRefusesNonFramedAnswer: frames are the one form the Client
// reads. A well-formed NDJSON answer, and a data line in a 'j' frame — the
// forms of daemons older than the binary frame kinds — each end the scan
// with the error naming the daemon as older than the client, never as rows.
func TestClientRefusesNonFramedAnswer(t *testing.T) {
	for name, c := range map[string]struct{ contentType, body string }{
		"NDJSON": {provhttp.ContentTypeNDJSON,
			`{"r":{"tid":1,"op":"I","loc":"T/a"}}` + "\n" + `{"eof":true,"n":1}` + "\n"},
		"tid line in a j frame": {provhttp.ContentTypeFrames,
			string(frame('j', []byte(`{"tid":1}`+"\n"))) + string(frame('n', []byte{1, 0}))},
	} {
		t.Run(name, func(t *testing.T) {
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", c.contentType)
				io.WriteString(w, c.body) //nolint:errcheck // test server
			}))
			defer fake.Close()
			cli := provhttp.NewClient(fake.Listener.Addr().String())
			defer cli.Close()
			got, err := provstore.CollectScan(cli.Scan(context.Background(), provstore.ByTid(1)))
			if len(got) != 0 || err == nil || !strings.Contains(err.Error(), "daemon is older than this client") {
				t.Fatalf("scan of a %s answer returned %v, %v; want no rows and the error naming the daemon as too old", name, got, err)
			}
		})
	}
}

// TestClientEarlyBreakReleasesServerCursor: breaking out of a client-side
// cursor mid-stream must close the connection, which cancels the server's
// request context and releases the server-side cursor — observed through
// the cursors_open gauge returning to zero.
func TestClientEarlyBreakReleasesServerCursor(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, srv := serve(t, inner)
	var recs []provstore.Record
	for i := 0; i < 1500; i++ {
		recs = append(recs, rec(1, provstore.OpInsert, fmt.Sprintf("T/n%04d", i), ""))
	}
	if err := cli.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	n := 0
	for _, err := range cli.Scan(ctx, provstore.All()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 5 {
			break // closes the response body; the server must notice
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats()["cursors_open"] == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if open := srv.Stats()["cursors_open"]; open != 0 {
		t.Fatalf("server cursor still open %d after client break", open)
	}
	waitGoroutines(t, base)
}

// TestScanAllAfterResumes: the client-side truncation-recovery path —
// break a ScanAll drain, then resume with ScanAllAfter from the last key
// that arrived; the two pieces must concatenate to the full table.
func TestScanAllAfterResumes(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, _ := serve(t, inner)
	for tid := int64(1); tid <= 3; tid++ {
		for i := 0; i < 3; i++ {
			if err := cli.Append(ctx, []provstore.Record{
				rec(tid, provstore.OpInsert, fmt.Sprintf("T/t%d/n%d", tid, i), ""),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := provstore.CollectScan(inner.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}

	var head []provstore.Record
	for r, err := range cli.Scan(ctx, provstore.All()) {
		if err != nil {
			t.Fatal(err)
		}
		head = append(head, r)
		if len(head) == 4 {
			break // simulate a consumer losing its stream mid-table
		}
	}
	last := head[len(head)-1]
	tail, err := provstore.CollectScan(cli.Scan(ctx, provstore.All().After(last.Tid, last.Loc)))
	if err != nil {
		t.Fatal(err)
	}
	got := append(head, tail...)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("resumed drain differs:\n%v\nwant\n%v", got, want)
	}
}

// TestStatsMergeReplicationGauges: a replicated backend behind the server
// surfaces its per-replica lag/applied-tid gauges through /v1/stats — the
// operator watches one endpoint for the whole composite store's health.
func TestStatsMergeReplicationGauges(t *testing.T) {
	ctx := context.Background()
	inner, err := provstore.OpenDSN("replicated://?primary=mem://&replica=mem://&replica=mem://&poll=5ms")
	if err != nil {
		t.Fatal(err)
	}
	rb := inner.(*provrepl.ReplicatedBackend)
	cli, srv := serve(t, rb)
	defer rb.Close()
	if err := cli.Append(ctx, []provstore.Record{rec(7, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := rb.WaitForReplicas(wctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st["repl.replicas"] != 2 || st["repl.shipped_tid"] != 7 {
		t.Errorf("replication gauges missing from stats: %v", st)
	}
	for _, k := range []string{"repl.applied_tid.0", "repl.applied_tid.1"} {
		if st[k] != 7 {
			t.Errorf("%s = %d, want 7 (stats: %v)", k, st[k], st)
		}
	}
	if st["repl.lag.0"] != 0 || st["repl.lag.1"] != 0 {
		t.Errorf("caught-up replicas report lag: %v", st)
	}

	// And over the wire, where cpdbd's SIGTERM dump reads them.
	resp, err := http.Get("http://" + cli.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served["repl.replicas"] != 2 {
		t.Errorf("served stats lack replication gauges: %v", served)
	}
}

// TestNonUTF8PathsRoundTrip: a label need not be UTF-8. Over cpdb:// such a
// path travels in record frames, so an append stores the bytes sent and a
// read by the sent location finds them; an NDJSON scan, whose lines are
// JSON, ends with an error line naming the path where encoding/json would
// have written another one.
func TestNonUTF8PathsRoundTrip(t *testing.T) {
	ctx := context.Background()
	recs := []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""),
		{Tid: 2, Op: provstore.OpInsert, Loc: path.New("T", "a\xffb")},
		{Tid: 3, Op: provstore.OpCopy, Loc: path.New("T", "c"), Src: path.New("S", "\xfe", "x")},
	}
	same := func(a, b provstore.Record) bool {
		return a.Tid == b.Tid && a.Op == b.Op && a.Loc.Equal(b.Loc) && a.Src.Equal(b.Src)
	}
	for name, inner := range map[string]func(t *testing.T) provstore.Backend{
		"mem": func(*testing.T) provstore.Backend { return provstore.NewMemBackend() },
		"rel": func(t *testing.T) provstore.Backend {
			b, err := provstore.OpenDSN("rel://" + provstore.EscapeDSNPath(filepath.Join(t.TempDir(), "prov.db")) + "?create=1")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // test teardown
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			store := inner(t)
			cli, _ := serve(t, store)
			if err := cli.Append(ctx, recs); err != nil {
				t.Fatal(err)
			}
			stored, err := provstore.CollectScan(store.Scan(ctx, provstore.All()))
			if err != nil || !slices.EqualFunc(stored, recs, same) {
				t.Fatalf("the store holds %v, %v; want %v", stored, err, recs)
			}
			for _, r := range recs {
				if got, ok, err := provstore.Lookup(ctx, cli, r.Tid, r.Loc); err != nil || !ok || !same(got, r) {
					t.Errorf("Lookup(%d, %q) = %v, %v, %v", r.Tid, r.Loc, got, ok, err)
				}
			}
			resp, err := http.Get("http://" + cli.Addr() + "/v1/scan-all")
			if err != nil {
				t.Fatal(err)
			}
			lines, end := provhttp.ReadStream(resp.Body, resp.Header.Get("Content-Type"))
			if len(lines) != 1 || !strings.Contains(end, `"T/a\xffb" is not valid UTF-8`) {
				t.Errorf("NDJSON scan: %d lines, then %s; want one line, then the error naming T/a\\xffb", len(lines), end)
			}
		})
	}
}

// TestAppendRequestHasContentLength: a cpdb:// Append reaches the handler as
// one request whose Content-Length is its body's length, not chunked, with
// the frames' content type, and the records arrive whole.
func TestAppendRequestHasContentLength(t *testing.T) {
	inner := provstore.NewMemBackend()
	srv := provhttp.NewServer(inner)
	type seen struct {
		length      int64
		body        int
		encoding    []string
		contentType string
	}
	var (
		mu   sync.Mutex
		reqs []seen
	)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/append" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			reqs = append(reqs, seen{r.ContentLength, len(body), r.TransferEncoding, r.Header.Get("Content-Type")})
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // loopback teardown
	ctx := context.Background()
	txns := [][]provstore.Record{
		{rec(1, provstore.OpInsert, "T/a", ""), rec(1, provstore.OpCopy, "T/b", "S/x/y")},
		// A body larger than the transport's write buffer.
		slices.Collect(func(yield func(provstore.Record) bool) {
			for i := range 300 {
				if !yield(rec(2, provstore.OpInsert, fmt.Sprintf("T/c/%s%d", strings.Repeat("n", 40), i), "")) {
					return
				}
			}
		}),
	}
	for _, txn := range txns {
		if err := b.Append(ctx, txn); err != nil {
			t.Fatal(err)
		}
	}
	if len(reqs) != len(txns) {
		t.Fatalf("%d append requests, want %d", len(reqs), len(txns))
	}
	for i, r := range reqs {
		if r.length != int64(r.body) || r.length <= 0 || len(r.encoding) != 0 || r.contentType != "application/x-cpdb-frames" {
			t.Errorf("append %d: Content-Length %d for a body of %d bytes, Transfer-Encoding %q, Content-Type %q; want the body's length, none, the frames' type",
				i, r.length, r.body, r.encoding, r.contentType)
		}
	}
	got, err := provstore.CollectScan(inner.Scan(ctx, provstore.All()))
	if err != nil || len(got) != len(txns[0])+len(txns[1]) {
		t.Fatalf("inner store holds %d records (%v), want %d", len(got), err, len(txns[0])+len(txns[1]))
	}
}
