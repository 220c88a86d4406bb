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
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

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
	ctx := context.Background()
	rec := func(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
		r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
		if src != "" {
			r.Src = path.MustParse(src)
		}
		return r
	}
	serve := func(last provstore.Record) (*url.URL, provauth.Root) {
		a, err := provauth.New(provstore.NewMemBackend())
		if err != nil {
			t.Fatal(err)
		}
		for _, txn := range [][]provstore.Record{
			{rec(1, provstore.OpInsert, "T/c1", ""), rec(1, provstore.OpInsert, "T/c2", "")},
			{rec(2, provstore.OpCopy, "T/c2/y", "S2/b3/y")},
			{last},
		} {
			if err := a.Append(ctx, txn); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		root, err := a.Root(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(provhttp.NewServer(a))
		t.Cleanup(hs.Close)
		u, err := url.Parse(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		return u, root
	}
	hURL, honest := serve(rec(3, provstore.OpDelete, "T/c1", ""))
	fURL, forged := serve(rec(3, provstore.OpInsert, "T/c3", ""))
	if honest.Size != forged.Size || honest.Hash == forged.Hash {
		t.Fatalf("H %v and F %v must be different histories of one size", honest, forged)
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

	pinFile = filepath.Join(t.TempDir(), "root.pin")
	if err := provauth.SavePin(pinFile, honest); err != nil {
		t.Fatal(err)
	}
	return "cpdb://" + proxy.Listener.Addr().String() + "?verify=pin&pin=" + provstore.EscapeDSNPath(pinFile), pinFile, honest, forged
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
