package provhttp_test

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// updateGolden rewrites testdata/wire_golden.txt from what the server
// answers today. The file pins bytes across refactors of the stream codec,
// so regenerate it only for a deliberate wire change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_golden.txt")

// failingBackend yields the first n records of each scan, then a store
// error: n = 0 fails before the 200 header is out (an HTTP status), n > 0
// after it (an in-band error line).
type failingBackend struct {
	provstore.Backend
	n int
}

func (b failingBackend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	return func(yield func(provstore.Record, error) bool) {
		i := 0
		for rec, err := range b.Backend.Scan(ctx, spec) {
			if err != nil || i == b.n {
				break
			}
			i++
			if !yield(rec, nil) {
				return
			}
		}
		yield(provstore.Record{}, errors.New("disk on fire"))
	}
}

// analyzeNS matches the one non-deterministic part of a response body: the
// per-operator wall times of an analyze trailer.
var analyzeNS = regexp.MustCompile(`"ns":\d+`)

// goldenKinds is one scan of each kind over queryFixture, as the
// endpoint's parameters.
var goldenKinds = []string{
	"kind=all",
	"kind=tid&tid=2",
	"kind=loc&loc=T/c1",
	"kind=loc-prefix&loc=T/c2",
	"kind=loc-ancestors&loc=T/c2/y",
}

// A goldenExchange is one request of the golden set: which of the golden
// servers it goes to and what it asks.
type goldenExchange struct {
	server, method, pathAndQuery, body string
}

// do issues the exchange, with extra header pairs.
func (e goldenExchange) do(t *testing.T, servers map[string]*httptest.Server, header ...string) *http.Response {
	t.Helper()
	var rd io.Reader
	if e.body != "" {
		rd = strings.NewReader(e.body)
	}
	req, err := http.NewRequest(e.method, servers[e.server].URL+e.pathAndQuery, rd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// goldenSet starts the golden servers over queryFixture — a plain store, a
// verified one, and one failing before and one after the 200 header — and
// lists the exchanges the golden file pins: one scan per kind (plain, cut by
// a limit, bounded by until, proven), one query per row kind with an analyze trailer, and both
// placements of a store error.
func goldenSet(t *testing.T) (map[string]*httptest.Server, []goldenExchange) {
	t.Helper()
	plain := provstore.NewMemBackend()
	queryFixture(t, plain)
	auth, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	queryFixture(t, auth)
	if err := auth.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	servers := map[string]*httptest.Server{
		"plain":    httptest.NewServer(provhttp.NewServer(plain)),
		"verified": httptest.NewServer(provhttp.NewServer(auth)),
		"fail0":    httptest.NewServer(provhttp.NewServer(failingBackend{plain, 0})),
		"fail2":    httptest.NewServer(provhttp.NewServer(failingBackend{plain, 2})),
	}
	for _, hs := range servers {
		t.Cleanup(hs.Close)
	}

	var set []goldenExchange
	exchange := func(server, method, pathAndQuery, body string) {
		set = append(set, goldenExchange{server, method, pathAndQuery, body})
	}
	query := func(server, params, text string, analyze bool) {
		t.Helper()
		q := provplan.MustParse(text)
		q.Analyze = analyze
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		exchange(server, http.MethodPost, "/v1/query"+params, string(body))
	}

	for _, kind := range goldenKinds {
		exchange("plain", http.MethodGet, "/v1/scan?"+kind, "")
		exchange("plain", http.MethodGet, "/v1/scan?"+kind+"&limit=1", "")
		exchange("plain", http.MethodGet, "/v1/scan?"+kind+"&until=3", "")
		exchange("verified", http.MethodGet, "/v1/scan?"+kind+"&proofs=1", "")
	}
	exchange("plain", http.MethodGet, "/v1/scan-all?limit=256", "")
	exchange("plain", http.MethodGet, "/v1/scan?kind=tid&tid=99", "")
	exchange("verified", http.MethodGet, "/v1/scan?kind=all&proofs=1&since=3&limit=2&after_tid=2&after_loc=T/c1", "")
	for _, text := range []string{
		"select where tid>=3 and op=C", // record rows
		"hist T/c3",                    // tid rows
		"select count where op=C",      // a value row
		"src T/c2/y",                   // a value row
		"src T/c3",                     // a value row with found=false
		"trace T/c3",                   // event rows and the end row
		"trace T/c2/y",
	} {
		query("plain", "", text, false)
	}
	query("plain", "", "select where loc>=T order loc-tid", true)
	query("plain", "", "trace T/c3", true) // (a mod's BFS waves register their operators in racing order)
	query("verified", "?proofs=1", "select where tid>=5", false)
	query("verified", "?proofs=1", "hist T/c3", false)

	for _, server := range []string{"fail0", "fail2"} {
		exchange(server, http.MethodGet, "/v1/scan?kind=all", "")
		query(server, "", "select", false)
	}
	return servers, set
}

// authHeaders are the response headers of a proven stream.
var authHeaders = []string{"X-Cpdb-Auth-Root", "X-Cpdb-Auth-Consistency"}

// TestWireGolden pins the exact bytes of the NDJSON row stream — what a
// request that does not ask for frames gets — over the golden set. A
// refactor of the encoder must leave every one of them unchanged.
func TestWireGolden(t *testing.T) {
	servers, set := goldenSet(t)
	var got strings.Builder
	for _, e := range set {
		resp := e.do(t, servers)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // test read
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s %s %s %s\n%d %s\n", e.server, e.method, e.pathAndQuery, e.body,
			resp.StatusCode, resp.Header.Get("Content-Type"))
		for _, h := range authHeaders {
			if v, ok := resp.Header[h]; ok {
				fmt.Fprintf(&got, "%s: %s\n", h, v[0])
			}
		}
		got.Write(analyzeNS.ReplaceAll(raw, []byte(`"ns":0`)))
	}

	const file = "testdata/wire_golden.txt"
	if *updateGolden {
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
				t.Fatalf("wire bytes differ from %s at line %d:\n got: %s\nwant: %s", file, i+1, gl[i], w)
			}
		}
		t.Fatalf("wire bytes differ from %s: golden file has %d more lines", file, len(wl)-len(gl))
	}
}

// TestFramesMatchGolden: every exchange of the golden set, asked again with
// Accept: application/x-cpdb-frames, decodes to the same rows, the same
// proofs, the same terminator and the same error as its NDJSON answer, under
// the same status and authentication headers — the frames are another
// spelling of the stream the golden file pins, not another stream. A failure
// before the first line is not a stream in either form: the same status and
// JSON error body.
func TestFramesMatchGolden(t *testing.T) {
	servers, set := goldenSet(t)
	streams, rows, failed := 0, 0, 0
	for _, e := range set {
		name := fmt.Sprintf("%s %s %s %s", e.server, e.method, e.pathAndQuery, e.body)
		plain := e.do(t, servers)
		framed := e.do(t, servers, "Accept", provhttp.ContentTypeFrames)
		if framed.StatusCode != plain.StatusCode {
			t.Fatalf("%s: status %d with frames accepted, %d without", name, framed.StatusCode, plain.StatusCode)
		}
		for _, h := range authHeaders {
			if framed.Header.Get(h) != plain.Header.Get(h) {
				t.Errorf("%s: %s is %q with frames accepted, %q without", name, h, framed.Header.Get(h), plain.Header.Get(h))
			}
		}
		if plain.StatusCode != http.StatusOK {
			a, _ := io.ReadAll(plain.Body)
			b, _ := io.ReadAll(framed.Body)
			plain.Body.Close()  //nolint:errcheck // test read
			framed.Body.Close() //nolint:errcheck // test read
			if string(a) != string(b) || framed.Header.Get("Content-Type") != plain.Header.Get("Content-Type") {
				t.Errorf("%s: the error response changes with the Accept header:\n%s %q\n%s %q", name,
					plain.Header.Get("Content-Type"), a, framed.Header.Get("Content-Type"), b)
			}
			continue
		}
		if ct := plain.Header.Get("Content-Type"); ct != provhttp.ContentTypeNDJSON {
			t.Errorf("%s: a bare request was answered as %s", name, ct)
		}
		if ct := framed.Header.Get("Content-Type"); ct != provhttp.ContentTypeFrames {
			t.Errorf("%s: a request accepting frames was answered as %s", name, ct)
		}
		wantLines, wantEnd := provhttp.ReadStream(plain.Body, plain.Header.Get("Content-Type"))
		gotLines, gotEnd := provhttp.ReadStream(framed.Body, framed.Header.Get("Content-Type"))
		if !slices.Equal(gotLines, wantLines) || gotEnd != wantEnd {
			t.Errorf("%s: the framed stream decodes differently from the NDJSON one:\n got: %q, %s\nwant: %q, %s",
				name, gotLines, gotEnd, wantLines, wantEnd)
		}
		streams++
		rows += len(gotLines)
		if strings.HasPrefix(gotEnd, "error: ") {
			failed++
		}
	}
	if streams+2 != len(set) || rows == 0 || failed != 2 {
		t.Errorf("compared %d streams of %d exchanges, %d rows, %d ending in an in-band error: want all but fail0's two, rows, and fail2's two",
			streams, len(set), rows, failed)
	}
}

// TestPageCacheByteIdentity: for every scan kind and limit, the body a
// WithPageCache server answers — filling the cache, then from it — is the
// body a server without one streams.
func TestPageCacheByteIdentity(t *testing.T) {
	inner := provstore.NewMemBackend()
	queryFixture(t, inner)
	streaming := httptest.NewServer(provhttp.NewServer(inner))
	defer streaming.Close()
	caching := provhttp.NewServer(inner, provhttp.WithPageCache(1<<20))
	cached := httptest.NewServer(caching)
	defer cached.Close()

	get := func(base, pathAndQuery string) string {
		t.Helper()
		resp, err := http.Get(base + pathAndQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // test read
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s\n%s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}
	pages := int64(0)
	for _, kind := range append([]string{"kind=all&after_tid=2&after_loc=T/c1"}, goldenKinds...) {
		for _, limit := range []int{1, 2, 3, 100} {
			pq := fmt.Sprintf("/v1/scan?%s&limit=%d", kind, limit)
			want := get(streaming.URL, pq)
			pages++
			if miss := get(cached.URL, pq); miss != want {
				t.Errorf("GET %s: page-cache miss differs from the streamed body\n got: %q\nwant: %q", pq, miss, want)
			}
			if st := caching.Stats(); st["cache.page.misses"] != pages || st["cache.page.hits"] != pages-1 {
				t.Fatalf("GET %s: %d misses, %d hits after the fill, want %d and %d", pq, st["cache.page.misses"], st["cache.page.hits"], pages, pages-1)
			}
			if hit := get(cached.URL, pq); hit != want {
				t.Errorf("GET %s: page-cache hit differs from the streamed body\n got: %q\nwant: %q", pq, hit, want)
			}
			if st := caching.Stats(); st["cache.page.hits"] != pages {
				t.Fatalf("GET %s: the repeat was not served from the cache (%d hits, want %d)", pq, st["cache.page.hits"], pages)
			}
		}
	}
}
