package provrepl

import (
	"context"
	"iter"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/provtest"
)

func mustAuth(t *testing.T, inner provstore.Backend) *provauth.AuthBackend {
	t.Helper()
	a, err := provauth.New(inner)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// waitRecs polls until the store holds exactly n records. WaitForReplicas
// is not the right barrier under Verify: a pass that ran between Append and
// Flush legitimately saw nothing (the transaction was still open), so the
// synced version can reach the shipped version before the records do.
func waitRecs(t *testing.T, b provstore.Backend, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := len(collectAll(t, b))
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d records, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVerifyRequiresAuthority: Verify over a plain store is a construction
// error, not a latent applier failure.
func TestVerifyRequiresAuthority(t *testing.T) {
	_, err := newReplicated(provstore.NewMemBackend(), []provstore.Backend{provstore.NewMemBackend()}, options{Verify: true})
	if err == nil || !strings.Contains(err.Error(), "verified://") {
		t.Fatalf("New with Verify over a plain store: err = %v, want a verified:// hint", err)
	}
}

// TestVerifiedShipping: with an honest authenticated primary, the proven
// stream converges replicas exactly like the plain one, and the verified
// gauges account for every shipped record.
func TestVerifiedShipping(t *testing.T) {
	ctx := context.Background()
	primary := mustAuth(t, provstore.NewMemBackend())
	rep := provstore.NewMemBackend()
	b := mustNew(t, primary, []provstore.Backend{rep}, options{Verify: true, ApplyBatch: 8})
	defer b.Close()
	for tid := int64(1); tid <= 5; tid++ {
		if err := b.Append(ctx, tidBatch(tid, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Seal the last transaction: the proven stream carries only sealed
	// transactions, so without this the replica would (correctly) trail by
	// tid 5 forever.
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitRecs(t, rep, 20)
	want := collectAll(t, primary)
	got := collectAll(t, rep)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replica diverged from primary:\n got %+v\nwant %+v", got, want)
	}
	g := provobs.Stats(provstore.Registries(b)...)
	if g["repl.verified_recs"] < 20 {
		t.Errorf("repl.verified_recs = %d, want >= 20", g["repl.verified_recs"])
	}
	if g["repl.verify_failures"] != 0 {
		t.Errorf("repl.verify_failures = %d, want 0", g["repl.verify_failures"])
	}
}

// TestVerifiedShippingHorizon: an open transaction is invisible to the
// proven stream, so a verified replica holds only the sealed prefix until
// Flush seals the tail.
func TestVerifiedShippingHorizon(t *testing.T) {
	ctx := context.Background()
	primary := mustAuth(t, provstore.NewMemBackend())
	rep := provstore.NewMemBackend()
	b := mustNew(t, primary, []provstore.Backend{rep}, options{Verify: true})
	defer b.Close()
	if err := b.Append(ctx, tidBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(ctx, tidBatch(2, 3)); err != nil { // seals tid 1, opens tid 2
		t.Fatal(err)
	}
	waitRecs(t, rep, 3)
	// Give the applier a few more passes: tid 2 must stay invisible.
	time.Sleep(20 * time.Millisecond)
	if n := len(collectAll(t, rep)); n != 3 {
		t.Fatalf("replica holds %d records with tid 2 still open, want 3", n)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitRecs(t, rep, 6)
}

// TestVerifiedShippingBlocksTamper: when the primary's stored bytes diverge
// from its Merkle tree, proofs stop verifying and shipping stalls — the
// corruption never reaches the replica, and the failure gauge records it.
func TestVerifiedShippingBlocksTamper(t *testing.T) {
	ctx := context.Background()
	tamper := provtest.NewTamper(provstore.NewMemBackend(), nil)
	primary := mustAuth(t, tamper)
	rep := provstore.NewMemBackend()
	b := mustNew(t, primary, []provstore.Backend{rep}, options{Verify: true})
	defer b.Close()
	if err := b.Append(ctx, tidBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitRecs(t, rep, 3)

	tamper.Arm(true)
	if err := b.Append(ctx, tidBatch(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for provobs.Stats(provstore.Registries(b)...)["repl.verify_failures"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("repl.verify_failures never rose with an armed tamper layer")
		}
		time.Sleep(time.Millisecond)
	}
	// The bad records must not have crossed: the proven stream re-proves
	// from the replica's high-water mark, and tid 2's first record fails.
	if n := len(collectAll(t, rep)); n != 3 {
		t.Fatalf("replica holds %d records under tamper, want the 3 shipped before", n)
	}
	if b.replicas[0].healthy.Load() {
		t.Error("replica still marked healthy while shipping is blocked")
	}

	// Disarm: the retry loop repairs itself and shipping resumes.
	tamper.Arm(false)
	waitRecs(t, rep, 6)
}

// swapAuth is a primary whose Authority can be swapped out from under the
// appliers — the stand-in for a remote primary that rewrote history and
// rebuilt its tree. Everything the swapped-in authority serves is
// internally consistent: valid proofs against its own root. Only the
// root-anchor consistency check can tell it is not the same log.
type swapAuth struct {
	provstore.Backend
	cur atomic.Pointer[provauth.AuthBackend]
}

func newSwapAuth(a *provauth.AuthBackend) *swapAuth {
	s := &swapAuth{Backend: a}
	s.cur.Store(a)
	return s
}

// Flush must forward explicitly: the embedded Backend interface hides the
// optional Flusher surface.
func (s *swapAuth) Flush(ctx context.Context) error { return s.cur.Load().Flush(ctx) }

func (s *swapAuth) Root(ctx context.Context) (provauth.Root, error) {
	return s.cur.Load().Root(ctx)
}

func (s *swapAuth) ProveAt(ctx context.Context, tid int64, loc path.Path, atSize uint64) (provauth.Proof, error) {
	return s.cur.Load().ProveAt(ctx, tid, loc, atSize)
}

func (s *swapAuth) Consistency(ctx context.Context, oldSize, newSize uint64) ([]provauth.Hash, error) {
	return s.cur.Load().Consistency(ctx, oldSize, newSize)
}

func (s *swapAuth) ScanProven(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provauth.ProvenRecord, error] {
	return s.cur.Load().ScanProven(ctx, spec)
}

// TestRewrittenPrimaryBlocksShipping: a primary that rewrote history and
// honestly re-proved everything against its regenerated tree passes every
// per-record check — but its root cannot extend the root the first
// verified pass anchored, so shipping stalls instead of propagating the
// rewrite. This is what separates the ship-root anchor from per-pass
// self-consistency.
func TestRewrittenPrimaryBlocksShipping(t *testing.T) {
	ctx := context.Background()
	honest := mustAuth(t, provstore.NewMemBackend())
	primary := newSwapAuth(honest)
	rep := provstore.NewMemBackend()
	b := mustNew(t, primary, []provstore.Backend{rep}, options{Verify: true})
	defer b.Close()
	if err := b.Append(ctx, tidBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitRecs(t, rep, 3) // the first verified pass anchors honest's root

	// The rewrite: same transaction shape, one record's history changed,
	// plus a fresh sealed tid 2 — its own tree, larger and internally
	// consistent, proving every record it serves.
	rewritten := mustAuth(t, provstore.NewMemBackend())
	recs := tidBatch(1, 3)
	recs[0].Op = provstore.OpDelete // history differs by one byte
	if err := rewritten.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if err := rewritten.Append(ctx, tidBatch(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := rewritten.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	primary.cur.Store(rewritten)

	deadline := time.Now().Add(10 * time.Second)
	for provobs.Stats(provstore.Registries(b)...)["repl.verify_failures"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("repl.verify_failures never rose against a rewritten primary")
		}
		time.Sleep(time.Millisecond)
	}
	// Nothing from the rewritten tree crossed to the replica.
	got, want := collectAll(t, rep), collectAll(t, honest)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replica diverged under a rewritten primary:\n got %+v\nwant %+v", got, want)
	}
	if b.replicas[0].healthy.Load() {
		t.Error("replica still marked healthy while shipping is blocked")
	}
}

// TestVerifyDSN: the composite driver's verify=1 plumbs through to options
// and demands a verified:// primary.
func TestVerifyDSN(t *testing.T) {
	good := "replicated://?primary=" + url.QueryEscape("verified://?inner=mem://") + "&replica=mem://&verify=1&poll=5ms"
	bk, err := provstore.OpenDSN(good)
	if err != nil {
		t.Fatalf("OpenDSN(%s): %v", good, err)
	}
	rb := bk.(*ReplicatedBackend)
	if !rb.opts.Verify {
		t.Error("verify=1 did not set Options.Verify")
	}
	if _, ok := provobs.Stats(provstore.Registries(rb)...)["repl.verify_failures"]; !ok {
		t.Error("verified backend does not surface repl.verify_failures")
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{
		"replicated://?primary=mem://&replica=mem://&verify=1",
		"replicated://?primary=mem://&replica=mem://&verify=yes",
	} {
		if _, err := provstore.OpenDSN(bad); err == nil {
			t.Errorf("OpenDSN(%s) succeeded, want error", bad)
		}
	}
}
