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

// TestSealAndRoots: one checkpoint per transaction, RootAt resolves the
// largest sealed tid at or below the argument.
func TestSealAndRoots(t *testing.T) {
	ctx := context.Background()
	a := newAuth(t)
	load(t, a)

	head, err := a.Root(ctx)
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if head.Tid != 3 || head.Size != 6 {
		t.Fatalf("head = %+v, want tid 3 over 6 leaves", head)
	}
	wantSizes := map[int64]uint64{0: 0, 1: 3, 2: 5, 3: 6, 99: 6}
	for tid, size := range wantSizes {
		r, err := a.RootAt(ctx, tid)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", tid, err)
		}
		if r.Size != size {
			t.Fatalf("RootAt(%d).Size = %d, want %d", tid, r.Size, size)
		}
	}
	if _, err := a.RootAt(ctx, -1); err == nil {
		t.Fatal("RootAt(-1) succeeded")
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
			p, root, err := a.Prove(ctx, r.Tid, r.Loc)
			if err != nil {
				t.Fatalf("Prove(%v): %v", r, err)
			}
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

	if _, _, err := a.Prove(ctx, 9, path.MustParse("S/a")); !errors.Is(err, provauth.ErrNotInLog) {
		t.Fatalf("Prove of absent record: %v, want ErrNotInLog", err)
	}
	g := provobs.Stats(provobs.SourceRegistries(a)...)
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

	if _, _, err := a.Prove(ctx, 1, path.MustParse("S/a")); !errors.Is(err, provauth.ErrUnsealed) {
		t.Fatalf("Prove of open record: %v, want ErrUnsealed", err)
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
	if _, _, err := a.Prove(ctx, 1, path.MustParse("S/a")); err != nil {
		t.Fatalf("Prove of sealed record: %v", err)
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

// TestConsistencyAcrossTransactions: the ISSUE acceptance clause — a
// consistency proof connecting two committed transactions verifies, and no
// proof connects a forged pair.
func TestConsistencyAcrossTransactions(t *testing.T) {
	ctx := context.Background()
	a := newAuth(t)
	load(t, a)

	for _, pair := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 3}} {
		cp, err := a.ConsistencyTids(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatalf("ConsistencyTids(%d, %d): %v", pair[0], pair[1], err)
		}
		if err := cp.Verify(); err != nil {
			t.Fatalf("ConsistencyTids(%d, %d).Verify: %v", pair[0], pair[1], err)
		}
	}
	cp, err := a.ConsistencyTids(ctx, 1, 3)
	if err != nil {
		t.Fatalf("ConsistencyTids: %v", err)
	}
	cp.New.Hash[0] ^= 0x40
	if err := cp.Verify(); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("forged consistency verified: %v", err)
	}
	if _, err := a.ConsistencyTids(ctx, 3, 1); err == nil {
		t.Fatal("ConsistencyTids backwards succeeded")
	}
}

// TestRebuild: reopening the tree over the populated store recomputes the
// same roots, checkpoint for checkpoint — what makes verified:// over a
// durable rel:// file restart-stable.
func TestRebuild(t *testing.T) {
	ctx := context.Background()
	inner := provstore.NewMemBackend()
	a, err := provauth.New(inner)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	load(t, a)

	b, err := provauth.New(inner)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, tid := range []int64{0, 1, 2, 3} {
		ra, _ := a.RootAt(ctx, tid)
		rb, err := b.RootAt(ctx, tid)
		if err != nil {
			t.Fatalf("RootAt(%d) after rebuild: %v", tid, err)
		}
		if ra != rb {
			t.Fatalf("rebuild diverged at tid %d: %+v != %+v", tid, ra, rb)
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
	for pr, err := range a.ScanAllProven(ctx, 0, path.Path{}) {
		if err != nil {
			t.Fatalf("ScanAllProven: %v", err)
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
	for pr, err := range a.ScanAllProven(ctx, got[2].Tid, got[2].Loc) {
		if err != nil {
			t.Fatalf("seeked ScanAllProven: %v", err)
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
// over honest data but whose reads lie. Point proofs and the proven stream
// must both fail closed.
func TestTamperedStore(t *testing.T) {
	ctx := context.Background()
	tamper := provtest.NewTamper(provstore.NewMemBackend(), nil)
	a, err := provauth.New(tamper)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	load(t, a)
	tamper.Arm(true)

	// Point lookup: the store serves a mutated record; its proof is for the
	// honest bytes, so verification fails.
	loc := path.MustParse("S/a")
	served, ok, err := provstore.Lookup(ctx, a, 1, loc)
	if err != nil || !ok {
		t.Fatalf("Lookup: %v, %v", ok, err)
	}
	p, root, err := a.Prove(ctx, 1, loc)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := provauth.VerifyRecord(root, served, p); !errors.Is(err, provauth.ErrVerify) {
		t.Fatalf("tampered lookup verified: %v", err)
	}

	// Streamed: at least one proven record must fail verification.
	var failures int
	for pr, err := range a.ScanAllProven(ctx, 0, path.Path{}) {
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
