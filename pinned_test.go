package cpdb_test

// Split-brain acceptance for the pinned CLI verbs: a proxy in front of two
// authenticated daemons — an honest one H and a forged one F, a different
// history with the same record count that still holds H's {2, T/c2/y} —
// routes each request to one of them. A pinned client must check every
// record of every read against its pin, so no routing can make "verify" or
// "prove" vouch for a root the pin never saw.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cpdb "repro"
	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provstore"
)

// splitBrain serves H and F behind one proxy that sends a request to H when
// toH says so and to F otherwise. It returns a pinned client DSN through the
// proxy whose pin file already holds H's root, the pin file, and H's and
// F's roots.
func splitBrain(t *testing.T, toH func(*http.Request) bool) (dsn, pinFile string, honest, forged provauth.Root) {
	t.Helper()
	addr, _, honest, forged := forkedDaemons(t, toH)
	dsn, pinFile = pinnedDSN(t, addr, honest)
	return dsn, pinFile, honest, forged
}

// forkedDaemons serves H and F behind one proxy, routed by toH as in
// splitBrain. It returns the proxy's address, the root of the two
// transactions H and F share, and H's and F's roots.
func forkedDaemons(t *testing.T, toH func(*http.Request) bool) (addr string, prefix, honest, forged provauth.Root) {
	t.Helper()
	hURL, prefix, honest := serveHistory(t, append(sharedHistory(), []provstore.Record{rec(3, provstore.OpDelete, "T/c1", "")}))
	fURL, fPrefix, forged := serveHistory(t, append(sharedHistory(), []provstore.Record{rec(3, provstore.OpInsert, "T/c3", "")}))
	if prefix != fPrefix || honest.Size != forged.Size || honest.Hash == forged.Hash {
		t.Fatalf("H %v and F %v must be different histories of one size over one prefix (%v, %v)", honest, forged, prefix, fPrefix)
	}
	toHonest, toForged := httputil.NewSingleHostReverseProxy(hURL), httputil.NewSingleHostReverseProxy(fURL)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if toH(r) {
			toHonest.ServeHTTP(w, r)
		} else {
			toForged.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(proxy.Close)
	return proxy.Listener.Addr().String(), prefix, honest, forged
}

// sharedHistory is the two transactions H and F share.
func sharedHistory() [][]provstore.Record {
	return [][]provstore.Record{
		{rec(1, provstore.OpInsert, "T/c1", ""), rec(1, provstore.OpInsert, "T/c2", "")},
		{rec(2, provstore.OpCopy, "T/c2/y", "S2/b3/y")},
	}
}

// serveHistory serves an authenticated daemon that commits txns one by
// one. It returns the daemon's URL, its root before the last transaction
// and its root after it.
func serveHistory(t *testing.T, txns [][]provstore.Record) (u *url.URL, prefix, root provauth.Root) {
	t.Helper()
	ctx := context.Background()
	a, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	for _, txn := range txns {
		if err := a.Append(ctx, txn); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		prefix = root
		if root, err = a.Root(ctx); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(provhttp.NewServer(a))
	t.Cleanup(hs.Close)
	if u, err = url.Parse(hs.URL); err != nil {
		t.Fatal(err)
	}
	return u, prefix, root
}

func rec(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
	r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

// pinnedDSN returns a pinned client DSN for the daemon at addr whose pin
// file already holds pin, and the pin file.
func pinnedDSN(t *testing.T, addr string, pin provauth.Root) (dsn, pinFile string) {
	t.Helper()
	pinFile = filepath.Join(t.TempDir(), "root.pin")
	if err := provauth.SavePin(pinFile, pin); err != nil {
		t.Fatal(err)
	}
	return "cpdb://" + addr + "?verify=pin&pin=" + provstore.EscapeDSNPath(pinFile), pinFile
}

// TestPinnedVerifyChecksProvenStream: the proxy answers every proven
// stream from F. Each record verifies against F's header root, and F holds
// as many records as H's root covers, so only checking that root against
// the pin can fail the verb — and the pin must not move.
func TestPinnedVerifyChecksProvenStream(t *testing.T) {
	dsn, pinFile, honest, _ := splitBrain(t, func(r *http.Request) bool { return r.URL.Query().Get("proofs") != "1" })
	var out strings.Builder
	err := cpdb.RunCLI(cpdb.CLIConfig{Demo: true, Method: "N", Backend: dsn, Queries: cpdb.StringList{"verify"}}, &out)
	if !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("pinned verify with F's proven stream = %v, output %q; want ErrVerify", err, out.String())
	}
	if pin, _, err := provauth.LoadPin(pinFile); err != nil || pin != honest {
		t.Fatalf("pin after the refused verify = %v, %v; want H's root %v", pin, err, honest)
	}
}

// TestPinnedProveReportsPinnedRoot: the proxy sends requests that carry a
// pin (since=) to H and the rest to F. The record {2, T/c2/y} is the same in
// both, so a proof fetched outside the pinned path would verify — against
// F's root. The verb must prove it under the pinned root.
func TestPinnedProveReportsPinnedRoot(t *testing.T) {
	dsn, _, honest, forged := splitBrain(t, func(r *http.Request) bool { return r.URL.Query().Has("since") })
	var out strings.Builder
	if err := cpdb.RunCLI(cpdb.CLIConfig{Demo: true, Method: "N", Backend: dsn, Queries: cpdb.StringList{"prove 2 T/c2/y"}}, &out); err != nil {
		t.Fatalf("pinned prove: %v", err)
	}
	if s := out.String(); !strings.Contains(s, "prove 2 T/c2/y: ok") || !strings.Contains(s, "under root "+honest.String()) || strings.Contains(s, forged.Hash.String()) {
		t.Fatalf("pinned prove printed %q; want the record proven under the pinned root %v", s, honest)
	}
}

// TestPinnedConcurrentForkFailsClosed: two concurrent pinned reads of the
// root leave the pin at the prefix H and F share. The proxy holds both at a
// barrier, then answers one from each fork; each answer extends the pin
// over its own valid consistency proof. Whichever is admitted first moves
// the pin, so the other must then be checked against the moved pin — and
// fail — rather than against the pin its request started from. Both
// completion orders are forced, and a third run leaves the order to the
// scheduler.
func TestPinnedConcurrentForkFailsClosed(t *testing.T) {
	for _, order := range []string{"honest first", "forged first", "unordered"} {
		t.Run(order, func(t *testing.T) {
			var (
				mu        sync.Mutex
				arrived   int
				both      = make(chan struct{})
				firstDone = make(chan struct{})
			)
			toH := func(r *http.Request) bool {
				if !r.URL.Query().Has("since") {
					return true
				}
				mu.Lock()
				arrived++
				first := arrived == 1
				if arrived == 2 {
					close(both)
				}
				mu.Unlock()
				select {
				case <-both:
				case <-r.Context().Done():
				}
				if !first && order != "unordered" {
					select {
					case <-firstDone:
					case <-r.Context().Done():
					}
				}
				return first == (order != "forged first")
			}
			addr, prefix, honest, forged := forkedDaemons(t, toH)
			dsn, pinFile := pinnedDSN(t, addr, prefix)
			b, err := provstore.OpenDSN(dsn)
			if err != nil {
				t.Fatal(err)
			}
			defer b.(io.Closer).Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			type result struct {
				root provauth.Root
				err  error
			}
			results := make(chan result, 2)
			for range 2 {
				go func() {
					root, err := b.(provauth.Authority).Root(ctx)
					results <- result{root, err}
				}()
			}
			first := <-results
			close(firstDone)
			second := <-results

			won, lost := first, second
			if first.err != nil {
				won, lost = second, first
			}
			if won.err != nil || !errors.Is(lost.err, provauth.ErrVerify) {
				t.Fatalf("concurrent pinned reads over forks returned (%v, %v) and (%v, %v); want one root and one ErrVerify",
					first.root, first.err, second.root, second.err)
			}
			answeredFirst := map[string]provauth.Root{"honest first": honest, "forged first": forged}[order]
			if won.root != honest && won.root != forged || order != "unordered" && won.root != answeredFirst {
				t.Fatalf("%s: admitted %v; H's root is %v, F's %v", order, won.root, honest, forged)
			}
			if pin, _, err := provauth.LoadPin(pinFile); err != nil || pin != won.root {
				t.Fatalf("pin file holds %v (%v), want the admitted root %v", pin, err, won.root)
			}
		})
	}
}

// TestPinnedReadBelowSinceFailsClosed: the pin holds H's root, and every
// pinned read (since=) is answered as of the shared prefix, an older root
// of H's own history, while everything else — /v1/consistency included —
// reaches H, which keeps its full history. The prefix connects to the pin
// over H's proof, but a read asked for history since the pin must not be
// answered below it: admitting it would let a server hide every record
// newer than the prefix. Each read fails with ErrVerify and the pin stays.
func TestPinnedReadBelowSinceFailsClosed(t *testing.T) {
	hURL, prefix, honest := serveHistory(t, append(sharedHistory(), []provstore.Record{rec(3, provstore.OpDelete, "T/c1", "")}))
	staleURL, _, stale := serveHistory(t, sharedHistory())
	if stale != prefix {
		t.Fatalf("the stale daemon's root %v must be H's prefix %v", stale, prefix)
	}
	toHonest, toStale := httputil.NewSingleHostReverseProxy(hURL), httputil.NewSingleHostReverseProxy(staleURL)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if !q.Has("since") {
			toHonest.ServeHTTP(w, r)
			return
		}
		// The stale daemon refuses since= beyond its tree; a lying server
		// would not.
		q.Set("since", strconv.FormatUint(stale.Size, 10))
		r.URL.RawQuery = q.Encode()
		toStale.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	dsn, pinFile := pinnedDSN(t, proxy.Listener.Addr().String(), honest)
	b, err := provstore.OpenDSN(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer b.(io.Closer).Close()
	ctx := context.Background()
	if root, err := b.(provauth.Authority).Root(ctx); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("pinned root read answered below the pin = %v, %v; want ErrVerify", root, err)
	}
	if recs, err := provstore.CollectScan(b.Scan(ctx, provstore.All())); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("pinned scan answered below the pin = %d records, %v; want ErrVerify", len(recs), err)
	}
	if pin, _, err := provauth.LoadPin(pinFile); err != nil || pin != honest {
		t.Fatalf("pin after the refused reads = %v, %v; want H's root %v", pin, err, honest)
	}
}
