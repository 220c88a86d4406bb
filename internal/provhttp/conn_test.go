package provhttp_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/path"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// countedServer serves h on loopback and counts the TCP connections it
// accepts, as its ConnState sees them.
func countedServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(h)
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	return hs, &conns
}

// TestClientConnReuse: on one client, sequential calls of every kind —
// an append, a stat, a scan and a plan read to their ends, a flush — share
// one keep-alive connection.
func TestClientConnReuse(t *testing.T) {
	ctx := context.Background()
	hs, conns := countedServer(t, provhttp.NewServer(provstore.NewMemBackend()))
	cli := provhttp.NewClient(hs.Listener.Addr().String())
	defer cli.Close()

	recs := []provstore.Record{rec(1, provstore.OpInsert, "T/a", ""), rec(1, provstore.OpCopy, "T/b", "S/x")}
	if err := cli.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if st, err := cli.Stat(ctx); err != nil || st.Count != len(recs) {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if got, err := provstore.CollectScan(cli.Scan(ctx, provstore.All())); err != nil || len(got) != len(recs) {
		t.Fatalf("Scan = %d records, %v", len(got), err)
	}
	if res, err := provplan.Collect(ctx, cli, provplan.MustParse("select where loc>=T")); err != nil || len(res.Records) != len(recs) {
		t.Fatalf("ExecPlan = %+v, %v", res, err)
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("five sequential round trips opened %d connections, want 1", n)
	}
}

// TestClientConnServerClosed: when the daemon closes the client's idle
// connection between two appends, the second append still lands, once.
func TestClientConnServerClosed(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	hs, conns := countedServer(t, provhttp.NewServer(inner))
	cli := provhttp.NewClient(hs.Listener.Addr().String())
	defer cli.Close()

	if err := cli.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	hs.CloseClientConnections()
	if err := cli.Append(ctx, []provstore.Record{rec(2, provstore.OpInsert, "T/b", "")}); err != nil {
		t.Fatalf("append after the daemon closed the connection: %v", err)
	}
	got, err := provstore.CollectScan(inner.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Tid != 1 || got[1].Tid != 2 {
		t.Fatalf("store holds %v, want each append once", got)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2", n)
	}
}

// TestClientConnDaemonRestart: a daemon restarted on the same address is
// reached on the next call, without an error from the connection the old
// one left in the pool.
func TestClientConnDaemonRestart(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	first := httptest.NewServer(provhttp.NewServer(inner))
	addr := first.Listener.Addr().String()
	cli := provhttp.NewClient(addr)
	defer cli.Close()
	if err := cli.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "T/a", "")}); err != nil {
		t.Fatal(err)
	}
	first.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	second := httptest.NewUnstartedServer(provhttp.NewServer(inner))
	second.Listener.Close()
	second.Listener = ln
	second.Start()
	defer second.Close()
	for _, call := range []func() error{
		func() error { _, err := cli.Stat(ctx); return err },
		func() error { return cli.Append(ctx, []provstore.Record{rec(2, provstore.OpInsert, "T/b", "")}) },
	} {
		if err := call(); err != nil {
			t.Fatalf("call to the restarted daemon: %v", err)
		}
	}
}

// TestClientConnEarlyBreak: a scan its consumer leaves early closes its
// connection — the server's cursor ends with it — and puts nothing back in
// the pool; the next call opens a new one.
func TestClientConnEarlyBreak(t *testing.T) {
	ctx := context.Background()
	hs, conns := countedServer(t, provhttp.NewServer(provstore.NewMemBackend()))
	cli := provhttp.NewClient(hs.Listener.Addr().String())
	defer cli.Close()
	var recs []provstore.Record
	for i := 0; i < 1500; i++ { // several flushes of the stream: its length is not known up front
		recs = append(recs, rec(1, provstore.OpInsert, fmt.Sprintf("T/n%04d", i), ""))
	}
	if err := cli.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if n := cli.IdleConns(); n != 1 {
		t.Fatalf("%d idle connections after an append, want 1", n)
	}
	n := 0
	for _, err := range cli.Scan(ctx, provstore.All()) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 5 {
			break
		}
	}
	if n := cli.IdleConns(); n != 0 {
		t.Fatalf("%d idle connections after an early break, want 0", n)
	}
	if _, err := cli.Stat(ctx); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the broken scan's and the next call's", n)
	}
}

// TestClientTimeout: cpdb://…?timeout= bounds a round trip whose handler
// stalls after its first frame — whether that frame is still in the
// server's buffer (the client waits for the answer's head) or already on
// the wire (the client waits inside the body). The scan fails within a
// bound with a deadline error, before the head one that names the
// request's trace id; the next call on the same client succeeds, and no
// goroutine is left over.
func TestClientTimeout(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		t.Run(fmt.Sprintf("flushed=%v", flushed), func(t *testing.T) {
			var trace atomic.Value
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/scan", func(w http.ResponseWriter, r *http.Request) {
				trace.Store(r.Header.Get("X-Cpdb-Trace-Id"))
				w.Header().Set("Content-Type", provhttp.ContentTypeFrames)
				w.Write(recordFrame(rec(1, provstore.OpInsert, "T/a", ""))) //nolint:errcheck // test server
				if flushed {
					w.(http.Flusher).Flush()
				}
				<-r.Context().Done() // stall until the client hangs up
			})
			mux.Handle("/", provhttp.NewServer(provstore.NewMemBackend()))
			hs := httptest.NewServer(mux)
			defer hs.Close()
			b, err := provstore.OpenDSN("cpdb://" + hs.Listener.Addr().String() + "?timeout=100ms")
			if err != nil {
				t.Fatal(err)
			}
			cli := b.(*provhttp.Client)
			defer cli.Close()
			ctx := context.Background()
			if _, err := cli.Stat(ctx); err != nil { // warm the pool so the baseline holds a connection
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()

			start := time.Now()
			var got int
			for _, err = range cli.Scan(ctx, provstore.ByPrefix(path.MustParse("T"))) {
				if err != nil {
					break
				}
				got++
			}
			took := time.Since(start)
			if err == nil || !isTimeout(err) {
				t.Fatalf("stalled scan returned %v, want a deadline error", err)
			}
			if took > 2*time.Second {
				t.Fatalf("stalled scan took %v under timeout=100ms", took)
			}
			want := 0
			if flushed {
				want = 1
			}
			if got != want {
				t.Fatalf("%d records before the stall, want %d", got, want)
			}
			if id, _ := trace.Load().(string); !flushed && (id == "" || !strings.Contains(err.Error(), id)) {
				t.Fatalf("timeout error %q does not name the trace id %q", err, id)
			}
			if _, err := cli.Stat(ctx); err != nil {
				t.Fatalf("the call after a timeout: %v", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// isTimeout reports whether err is a deadline error: context's, or a
// net.Error that timed out.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ne) && ne.Timeout()
}
