package cpdb_test

// What one small question costs over the wire. The same bounded select over
// the bench store is asked three ways: in process, over cpdb:// against an
// in-process provhttp server on loopback, and as a bare net/http POST that a
// handler answers with a body of the cpdb:// answer's size. cpdb − bare −
// in-process is what the service adds to a question on top of its work and
// one HTTP round trip.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"

	cpdb "repro"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// roundTripQuery is the question of the round-trip benchmarks: 20 records
// of one subtree.
const roundTripQuery = "select where loc>=T/t50 limit 20"

// contentTypeFrames is the framed row stream's Content-Type, which a
// cpdb:// client asks for.
const contentTypeFrames = "application/x-cpdb-frames"

// queryService serves a mem:// bench store on loopback and returns the
// store, a cpdb:// client of it and the service's address.
func queryService(tb testing.TB) (inner provstore.Backend, client cpdb.Backend, addr string) {
	tb.Helper()
	inner = provstore.NewMemBackend()
	benchStore(tb, inner)
	dsn, _ := startStatService(tb, inner)
	client, err := cpdb.OpenBackend(dsn)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { provstore.Close(client) }) //nolint:errcheck // loopback teardown
	return inner, client, dsn[len("cpdb://"):]
}

// benchCollect asks q of b once per iteration and checks the answer's size.
func benchCollect(b *testing.B, backend provstore.Backend, q *provplan.Query, want int) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := provplan.Collect(ctx, backend, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != want {
			b.Fatalf("%d records, want %d", len(res.Records), want)
		}
	}
}

// BenchmarkQueryRoundTripInProcess is the question's work: the plan run on
// the store itself.
func BenchmarkQueryRoundTripInProcess(b *testing.B) {
	inner, _, _ := queryService(b)
	benchCollect(b, inner, provplan.MustParse(roundTripQuery), 20)
}

// BenchmarkQueryRoundTripCpdb is the question over cpdb://: the plan ships
// to the server's /v1/query and the rows come back as one framed stream.
func BenchmarkQueryRoundTripCpdb(b *testing.B) {
	_, client, _ := queryService(b)
	benchCollect(b, client, provplan.MustParse(roundTripQuery), 20)
}

// BenchmarkQueryRoundTripBare is one HTTP round trip and nothing else: the
// query's JSON body posted to a handler that reads it and answers with as
// many bytes as the cpdb:// answer carries.
func BenchmarkQueryRoundTripBare(b *testing.B) {
	_, _, addr := queryService(b)
	body, err := json.Marshal(provplan.MustParse(roundTripQuery))
	if err != nil {
		b.Fatal(err)
	}
	answer := postQuery(b, http.DefaultClient, "http://"+addr+"/v1/query", body)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // the request is only read
		w.Header().Set("Content-Type", contentTypeFrames)
		w.Write(answer) //nolint:errcheck // the client reads it
	})}
	go hs.Serve(ln) //nolint:errcheck // reports ErrServerClosed at teardown
	b.Cleanup(func() { hs.Close() })
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	url := "http://" + ln.Addr().String() + "/v1/query"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := postQuery(b, hc, url, body); len(got) != len(answer) {
			b.Fatalf("%d bytes, want %d", len(got), len(answer))
		}
	}
}

// postQuery posts a query body, asking for frames, and returns the answer's
// bytes.
func postQuery(b *testing.B, hc *http.Client, url string, body []byte) []byte {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", contentTypeFrames)
	resp, err := hc.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // only read
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d, %v", resp.StatusCode, err)
	}
	return raw
}
