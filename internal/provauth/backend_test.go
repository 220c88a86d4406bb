package provauth_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/provtest"
)

func rec(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
	r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

// fixture: three transactions over two databases, all op kinds.
func fixture() [][]provstore.Record {
	return [][]provstore.Record{
		{
			rec(1, provstore.OpInsert, "S/a", ""),
			rec(1, provstore.OpInsert, "S/a/x", ""),
			rec(1, provstore.OpInsert, "S/b", ""),
		},
		{
			rec(2, provstore.OpCopy, "T/c", "S/a"),
			rec(2, provstore.OpCopy, "T/c/x", "S/a/x"),
		},
		{
			rec(3, provstore.OpDelete, "S/b", ""),
		},
	}
}

// point is the proven point scan of the record keyed {tid, loc}: its first
// record, if it yields one.
func point(ctx context.Context, a provauth.Authority, tid int64, loc path.Path) (provauth.ProvenRecord, bool, error) {
	for pr, err := range a.ScanProven(ctx, provstore.ByLoc(loc).After(tid-1, loc).Until(tid)) {
		return pr, err == nil, err
	}
	return provauth.ProvenRecord{}, false, nil
}

func newAuth(t *testing.T) *provauth.AuthBackend {
	t.Helper()
	a, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func load(t *testing.T, a *provauth.AuthBackend) {
	t.Helper()
	ctx := context.Background()
	for _, txn := range fixture() {
		if err := a.Append(ctx, txn); err != nil {
			t.Fatalf("Append tid %d: %v", txn[0].Tid, err)
		}
	}
	if err := a.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestProveAndVerify: every sealed record proves against the head and
// verifies; a mutated record, wrong proof, or absent key fails loudly.
func TestProveAndVerify(t *testing.T) {
	ctx := context.Background()
	a := newAuth(t)
	load(t, a)

	for _, txn := range fixture() {
		for _, r := range txn {
			pr, ok, err := point(ctx, a, r.Tid, r.Loc)
			if err != nil || !ok {
				t.Fatalf("proven point scan of %v: %v, %v", r, ok, err)
			}
			root, p := pr.Root, pr.Proof
			if err := provauth.VerifyRecord(root, r, p); err != nil {
				t.Fatalf("VerifyRecord(%v): %v", r, err)
			}
			bad := r
			bad.Op = provstore.OpDelete
			if bad.Op == r.Op {
				bad.Op = provstore.OpInsert
				bad.Src = path.Path{}
			}
			if err := provauth.VerifyRecord(root, bad, p); !errors.Is(err, provauth.ErrVerify) {
				t.Fatalf("VerifyRecord of mutated %v: %v, want ErrVerify", r, err)
			}
		}
	}

	if pr, ok, err := point(ctx, a, 9, path.MustParse("S/a")); ok || err != nil {
		t.Fatalf("proven point scan of absent record = %v, %v, %v; want nothing", pr, ok, err)
	}
	if _, err := a.ProveAt(ctx, 9, path.MustParse("S/a"), 6); !errors.Is(err, provauth.ErrNotInLog) {
		t.Fatalf("ProveAt of absent record: %v, want ErrNotInLog", err)
	}
	g := provobs.Stats(provstore.Registries(a)...)
	if g["auth.verify_failures"] == 0 {
		t.Fatal("auth.verify_failures not bumped by ErrNotInLog")
	}
	if g["auth.proofs_served"] == 0 || g["auth.root_tid"] != 3 || g["auth.root_size"] != 6 {
		t.Fatalf("gauges = %v", g)
	}
}

// TestOpenTransaction: the highest transaction stays unprovable until a
// higher tid, Flush, or Close seals it — and reads never seal.
func TestOpenTransaction(t *testing.T) {
	ctx := context.Background()
	a := newAuth(t)
	if err := a.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "S/a", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	if _, _, err := point(ctx, a, 1, path.MustParse("S/a")); !errors.Is(err, provauth.ErrUnsealed) {
		t.Fatalf("proven point scan of open record: %v, want ErrUnsealed", err)
	}
	if root, _ := a.Root(ctx); root.Size != 0 {
		t.Fatalf("root advanced before seal: %+v", root)
	}
	// A read must not have sealed: appending more of tid 1 still works.
	if err := a.Append(ctx, []provstore.Record{rec(1, provstore.OpInsert, "S/b", "")}); err != nil {
		t.Fatalf("Append into open transaction after reads: %v", err)
	}

	// A higher tid seals it.
	if err := a.Append(ctx, []provstore.Record{rec(2, provstore.OpInsert, "T/c", "")}); err != nil {
		t.Fatalf("Append tid 2: %v", err)
	}
	if _, ok, err := point(ctx, a, 1, path.MustParse("S/a")); err != nil || !ok {
		t.Fatalf("proven point scan of sealed record: %v, %v", ok, err)
	}
	if root, _ := a.Root(ctx); root.Tid != 1 || root.Size != 2 {
		t.Fatalf("root after sealing tid 1 = %+v", root)
	}
}

// TestErrSealed: appends at or below a sealed transaction are rejected
// before they reach the store.
func TestErrSealed(t *testing.T) {
	ctx := context.Background()
	a := newAuth(t)
	load(t, a) // seals 1..3

	err := a.Append(ctx, []provstore.Record{rec(2, provstore.OpInsert, "S/late", "")})
	if !errors.Is(err, provauth.ErrSealed) {
		t.Fatalf("append into sealed transaction: %v, want ErrSealed", err)
	}
	// The rejected record must not be in the store either.
	if _, ok, _ := provstore.Lookup(ctx, a, 2, path.MustParse("S/late")); ok {
		t.Fatal("rejected append reached the inner store")
	}
	// The log itself still extends.
	if err := a.Append(ctx, []provstore.Record{rec(4, provstore.OpInsert, "S/new", "")}); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
}

// TestRebuild: reopening the tree over the populated store recomputes the
// same roots, transaction for transaction — what makes verified:// over a
// durable rel:// file restart-stable.
func TestRebuild(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	a, err := provauth.New(inner)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, txn := range fixture() {
		if err := a.Append(ctx, txn); err != nil {
			t.Fatalf("Append tid %d: %v", txn[0].Tid, err)
		}
		if err := a.Flush(ctx); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		b, err := provauth.New(inner)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		ra, _ := a.Root(ctx)
		rb, _ := b.Root(ctx)
		if ra != rb || ra.Tid != txn[0].Tid {
			t.Fatalf("rebuild after tid %d diverged: %+v != %+v", txn[0].Tid, rb, ra)
		}
	}
}

// TestScanAllProven: the proven stream covers exactly the sealed relation,
// every record verifies against the one snapshot root, and seeking resumes
// mid-stream.
func TestScanAllProven(t *testing.T) {
	ctx := context.Background()
	a := newAuth(t)
	load(t, a)
	// One open (unsealed) record: the stream must stop before it.
	if err := a.Append(ctx, []provstore.Record{rec(7, provstore.OpInsert, "S/open", "")}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	var got []provstore.Record
	var root provauth.Root
	for pr, err := range a.ScanProven(ctx, provstore.All().After(0, path.Path{})) {
		if err != nil {
			t.Fatalf("ScanProven: %v", err)
		}
		if err := pr.Verify(); err != nil {
			t.Fatalf("proven record %v: %v", pr.Rec, err)
		}
		got = append(got, pr.Rec)
		root = pr.Root
	}
	if len(got) != 6 || uint64(len(got)) != root.Size {
		t.Fatalf("proven stream yielded %d records under root %+v, want the 6 sealed ones", len(got), root)
	}

	// Seek: resume strictly after the third record.
	var tail int
	for pr, err := range a.ScanProven(ctx, provstore.All().After(got[2].Tid, got[2].Loc)) {
		if err != nil {
			t.Fatalf("seeked ScanProven: %v", err)
		}
		if err := pr.Verify(); err != nil {
			t.Fatalf("seeked proven record: %v", err)
		}
		tail++
	}
	if tail != 3 {
		t.Fatalf("seeked stream yielded %d records, want 3", tail)
	}
}

// TestTamperedStore: the headline threat — a store whose tree was built
// over honest data but whose reads lie. A proven point scan and the proven
// stream must both fail closed.
func TestTamperedStore(t *testing.T) {
	ctx := context.Background()
	tamper := provtest.NewTamper(provstore.NewMemBackend(), nil)
	a, err := provauth.New(tamper)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	load(t, a)
	tamper.Arm(true)

	// Point read: the store serves a mutated record; its proof is for the
	// honest bytes, so verification fails.
	served, ok, err := point(ctx, a, 1, path.MustParse("S/a"))
	if err != nil || !ok {
		t.Fatalf("proven point scan: %v, %v", ok, err)
	}
	if err := served.Verify(); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered point read verified: %v", err)
	}

	// Streamed: at least one proven record must fail verification.
	var failures int
	for pr, err := range a.ScanProven(ctx, provstore.All().After(0, path.Path{})) {
		if err != nil {
			// Mutation may also move the record out of the log's key set;
			// that surfaces as an in-stream error — equally fail-closed.
			failures++
			break
		}
		if pr.Verify() != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("tampered stream fully verified")
	}
}
