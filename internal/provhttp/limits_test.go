package provhttp_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// padded is a request body of exactly size bytes: head, then newlines — which
// the NDJSON decoder skips, so the body's size is what the test controls.
func padded(head string, size int64) io.Reader {
	return io.MultiReader(strings.NewReader(head), io.LimitReader(newlines{}, size-int64(len(head))))
}

type newlines struct{}

func (newlines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

// TestOversizedBodiesRefused: a POST body is decoded into memory before the
// store sees it, so each endpoint bounds what it reads. A body of exactly
// the limit is served; one byte more is refused whole with 413 — nothing is
// appended — and counted.
func TestOversizedBodiesRefused(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	cli, srv := serve(t, inner)
	base := "http://" + cli.Addr()
	post := func(path string, body io.Reader) int {
		t.Helper()
		resp, err := http.Post(base+path, "application/x-ndjson", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is the answer
		return resp.StatusCode
	}
	count := func() int {
		t.Helper()
		st, err := inner.Stat(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.Count
	}

	const one = `{"tid":1,"op":"I","loc":"T/a"}` + "\n"
	const two = `{"tid":2,"op":"I","loc":"T/a"}` + "\n"
	if got := post("/v1/append", padded(one, provhttp.MaxAppendBytes)); got != http.StatusNoContent {
		t.Fatalf("append of exactly MaxAppendBytes: HTTP %d, want 204", got)
	}
	if n := count(); n != 1 {
		t.Fatalf("store holds %d records after the at-limit append, want 1", n)
	}
	if got := post("/v1/append", padded(two, provhttp.MaxAppendBytes+1)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("append one byte over MaxAppendBytes: HTTP %d, want 413", got)
	}
	if n := count(); n != 1 {
		t.Errorf("store holds %d records after the refused append, want 1 (refused whole)", n)
	}

	huge := `{"op":"select","path":"` + strings.Repeat("x", provhttp.MaxQueryBytes) + `"}`
	if got := post("/v1/query", strings.NewReader(huge)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("query over MaxQueryBytes: HTTP %d, want 413", got)
	}
	if _, err := provplan.Collect(ctx, cli, provplan.MustParse("select")); err != nil {
		t.Errorf("a query after the refused one: %v", err)
	}
	if got := post("/v1/query", strings.NewReader(`{"op":"select"}{"op":"hist","path":"T"}`)); got != http.StatusBadRequest {
		t.Errorf("a query body of two JSON values: HTTP %d, want 400", got)
	}
	if got := srv.Stats()["rejected"]; got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}

	// The typed error reaches a Backend caller too.
	var re *provhttp.RemoteError
	label := strings.Repeat("x", 1<<10)
	big := make([]provstore.Record, 0, provhttp.MaxAppendBytes>>10)
	for i := 0; len(big) < cap(big); i++ {
		big = append(big, rec(9, provstore.OpInsert, "T/"+label+"/n"+strconv.Itoa(i), ""))
	}
	if err := cli.Append(ctx, big); !errors.As(err, &re) || re.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("Append of %d records: %v, want HTTP 413", len(big), err)
	}
	if n := count(); n != 1 {
		t.Errorf("store holds %d records after the refused client append, want 1", n)
	}
}

// TestOversizedRecordRefused: a record the store has no room for is the
// client's error like an oversized body — 413, with the store's bound in the
// message — and the batch it came in stores nothing.
func TestOversizedRecordRefused(t *testing.T) {
	ctx := context.Background()
	inner, err := provstore.OpenDSN("rel://" + provstore.EscapeDSNPath(filepath.Join(t.TempDir(), "prov.db")) + "?create=1&durable=1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { provstore.Close(inner) }) //nolint:errcheck // test teardown
	cli, _ := serve(t, inner)
	var re *provhttp.RemoteError
	err = cli.Append(ctx, []provstore.Record{
		rec(1, provstore.OpInsert, "T/a", ""),
		rec(1, provstore.OpInsert, "T/"+strings.Repeat("x", 2000), ""),
	})
	if !errors.As(err, &re) || re.Status != http.StatusRequestEntityTooLarge || !strings.Contains(re.Msg, "at most") {
		t.Fatalf("Append of a 2000-byte label: %v; want HTTP 413 naming the bound", err)
	}
	if st, err := inner.Stat(ctx); err != nil || st.Count != 0 {
		t.Errorf("store after the refused append: %+v, %v; want it empty", st, err)
	}
	if err := cli.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Errorf("the append after the refused one: %v", err)
	}
}

// TestHTTPServerTimeouts: the daemon's http.Server bounds how long a client
// may take over its request header and how long an idle connection is kept,
// and does not bound a response — a drain is a long one. A header that never
// completes is disconnected.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := provhttp.NewHTTPServer(provhttp.NewServer(provstore.NewMemBackend()))
	if hs.ReadHeaderTimeout != provhttp.ReadHeaderTimeout || hs.ReadHeaderTimeout <= 0 ||
		hs.IdleTimeout != provhttp.IdleTimeout || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v, idle %v, write %v", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 50 * time.Millisecond // the mechanism, without the production wait
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln) //nolint:errcheck // reports ErrServerClosed at teardown
	t.Cleanup(func() { hs.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/ping HTTP/1.1\r\nHost: x\r\nX-Never-Ends: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a TCP conn takes deadlines
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the server kept a connection whose header never completed: %v", err)
	}
	if strings.Contains(string(reply), "200 OK") {
		t.Fatalf("half a header was served: %q", reply)
	}
}
