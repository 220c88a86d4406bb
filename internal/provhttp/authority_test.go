package provhttp_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provstore"
)

// TestAuthorityTable runs one table over the three implementations of
// provauth.Authority a reader meets: the local AuthBackend, a Client to a
// daemon serving it, and a Client to a daemon chained onto that daemon. For
// every scan kind ScanProven must return Scan's records as of its root,
// prove each against that one root, and give each the proof ProveAt gives
// for the same key and tree size; a point scan of the open transaction
// fails with ErrUnsealed on all three, and Consistency connects an earlier
// head to the current one but not backwards.
func TestAuthorityTable(t *testing.T) {
	ctx := context.Background()
	local, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	var first provauth.Root // the head after transaction 1
	for _, txn := range [][]provstore.Record{
		{rec(1, provstore.OpInsert, "S/a", ""), rec(1, provstore.OpInsert, "S/a/x", ""), rec(1, provstore.OpInsert, "S/b", "")},
		{rec(2, provstore.OpCopy, "T/c", "S/a"), rec(2, provstore.OpCopy, "T/c/x", "S/a/x")},
		{rec(3, provstore.OpDelete, "S/a/x", ""), rec(3, provstore.OpInsert, "T/c/x/y", "")},
	} {
		if err := local.Append(ctx, txn); err != nil {
			t.Fatal(err)
		}
		if err := local.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if first.Size == 0 {
			first, _ = local.Root(ctx)
		}
	}
	// The open transaction: its records sort among the sealed ones in every
	// order but (Tid, Loc).
	open := path.MustParse("S/a/open")
	if err := local.Append(ctx, []provstore.Record{rec(9, provstore.OpInsert, "S/a/open", ""), rec(9, provstore.OpInsert, "T/c/x/z", "")}); err != nil {
		t.Fatal(err)
	}

	serve := func(inner provstore.Backend) *provhttp.Client {
		hs := httptest.NewServer(provhttp.NewServer(inner))
		t.Cleanup(hs.Close)
		return provhttp.NewClient(hs.Listener.Addr().String())
	}
	daemon := serve(local)
	chain := serve(daemon)
	type authStore interface {
		provauth.Authority
		provstore.Backend
	}

	sa, tc := path.MustParse("S/a"), path.MustParse("T/c")
	specs := []provstore.ScanSpec{
		provstore.All(),
		provstore.All().After(1, path.MustParse("S/b")),
		provstore.All().Until(2),
		provstore.ByTid(2),
		provstore.ByTid(9),
		provstore.ByLoc(sa),
		provstore.ByLoc(sa).After(1, sa),
		provstore.ByLoc(tc).After(1, tc).Until(2), // a point read
		provstore.ByPrefix(path.MustParse("S")),
		provstore.ByPrefix(tc).Until(2),
		provstore.WithAncestors(path.MustParse("T/c/x/z")),
		provstore.WithAncestors(path.MustParse("S/a/open")).Until(9),
	}
	for _, impl := range []struct {
		name string
		a    authStore
	}{{"local", local}, {"daemon", daemon}, {"chain", chain}} {
		root, err := impl.a.Root(ctx)
		if err != nil || root.Tid != 3 || root.Size != 7 {
			t.Fatalf("%s: Root = %+v, %v; want tid 3 over 7 leaves", impl.name, root, err)
		}
		audit, err := impl.a.Consistency(ctx, first.Size, root.Size)
		if err != nil {
			t.Fatalf("%s: Consistency(%d, %d): %v", impl.name, first.Size, root.Size, err)
		}
		if err := provauth.VerifyConsistency(first, root, audit); err != nil {
			t.Fatalf("%s: the head after transaction 1 does not connect to the current one: %v", impl.name, err)
		}
		if _, err := impl.a.Consistency(ctx, root.Size, first.Size); err == nil {
			t.Fatalf("%s: Consistency backwards succeeded", impl.name)
		}
		for _, spec := range specs {
			var want []provstore.Record
			for r, err := range impl.a.Scan(ctx, spec) {
				if err != nil {
					t.Fatalf("%s: Scan(%v): %v", impl.name, spec, err)
				}
				if r.Tid <= root.Tid {
					want = append(want, r)
				}
			}
			var got []provstore.Record
			for pr, err := range impl.a.ScanProven(ctx, spec) {
				if err != nil {
					t.Fatalf("%s: ScanProven(%v): %v", impl.name, spec, err)
				}
				if pr.Root != root {
					t.Fatalf("%s: ScanProven(%v) record %v under root %v, want %v", impl.name, spec, pr.Rec, pr.Root, root)
				}
				if err := pr.Verify(); err != nil {
					t.Fatalf("%s: ScanProven(%v) record %v: %v", impl.name, spec, pr.Rec, err)
				}
				p, err := impl.a.ProveAt(ctx, pr.Rec.Tid, pr.Rec.Loc, root.Size)
				if err != nil {
					t.Fatalf("%s: ProveAt(%v): %v", impl.name, pr.Rec, err)
				}
				if !bytes.Equal(p.AppendBinary(nil), pr.Proof.AppendBinary(nil)) {
					t.Fatalf("%s: ScanProven(%v) proves %v as %+v, ProveAt as %+v", impl.name, spec, pr.Rec, pr.Proof, p)
				}
				got = append(got, pr.Rec)
			}
			if !recordsEqual(got, want) {
				t.Fatalf("%s: ScanProven(%v) = %v, want Scan's records as of tid %d: %v", impl.name, spec, got, root.Tid, want)
			}
		}
		var openErr error
		for pr, err := range impl.a.ScanProven(ctx, provstore.ByLoc(open).After(8, open).Until(9)) {
			if err == nil {
				t.Fatalf("%s: proven point scan of the open transaction yielded %v", impl.name, pr.Rec)
			}
			openErr = err
		}
		if !errors.Is(openErr, provauth.ErrUnsealed) {
			t.Fatalf("%s: proven point scan of the open transaction: %v, want ErrUnsealed", impl.name, openErr)
		}
	}
}

// recordsEqual compares two record lists by their binary encodings.
func recordsEqual(a, b []provstore.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].AppendBinary(nil), b[i].AppendBinary(nil)) {
			return false
		}
	}
	return true
}

// TestAuthEndpointParameters: the authentication endpoints answer 400 on a
// parameter they do not take — the removed checkpoint forms included, which
// would otherwise come back answered about the current root — and /v1/prove
// requires the tree size it proves against.
func TestAuthEndpointParameters(t *testing.T) {
	ctx := context.Background()
	cli, auth, _ := serveAuth(t, filepath.Join(t.TempDir(), "root.pin"))
	ingest(t, cli)
	root, err := auth.Root(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at := strconv.FormatUint(root.Size, 10)
	for _, tc := range []struct {
		target string
		status int
	}{
		{"/v1/root?tid=1", http.StatusBadRequest},
		{"/v1/consistency?old_tid=1&new_tid=2", http.StatusBadRequest},
		{"/v1/prove?tid=2&loc=T/c", http.StatusBadRequest},
		{"/v1/prove?tid=2&loc=T/c&at=" + at + "&since=3", http.StatusBadRequest},
		{"/v1/root?sinse=3", http.StatusBadRequest},
		{"/v1/root", http.StatusOK},
		{"/v1/root?since=3", http.StatusOK},
		{"/v1/consistency?old=3&new=" + at, http.StatusOK},
		{"/v1/prove?tid=2&loc=T/c&at=" + at, http.StatusOK},
	} {
		resp, err := http.Get("http://" + cli.Addr() + tc.target)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // test read
		if resp.StatusCode != tc.status {
			t.Errorf("GET %s: HTTP %d %s, want %d", tc.target, resp.StatusCode, body, tc.status)
		}
		if strings.HasPrefix(tc.target, "/v1/prove") && tc.status == http.StatusOK && !strings.Contains(string(body), `"p":"`) {
			t.Errorf("GET %s: answer %s carries no proof", tc.target, body)
		}
	}
}
