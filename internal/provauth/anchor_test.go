package provauth_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/provauth"
	"repro/internal/provstore"
)

// countingAuth counts the consistency proofs an anchor fetches, and runs
// during, once, inside the first fetch.
type countingAuth struct {
	provauth.Authority
	fetches int
	during  func()
}

func (c *countingAuth) Consistency(ctx context.Context, oldSize, newSize uint64) ([]provauth.Hash, error) {
	c.fetches++
	if during := c.during; during != nil {
		c.during = nil
		during()
	}
	return c.Authority.Consistency(ctx, oldSize, newSize)
}

// TestAnchor: the one root-admission rule, step by step, with the pin file
// following the anchor. h1…h3 are an honest store's roots after each of
// three transactions, f3 a fork of the same size that shares h2's prefix.
// A step's since and audit stand for a since= response: the audit proves
// the root extends since, and counts only while since is the anchor; a root
// below since is refused, though it may be a prefix of the anchor. A
// step's during is admitted while the step fetches its proof, as a
// concurrent read would be.
func TestAnchor(t *testing.T) {
	ctx := context.Background()
	honest, fork := newAuth(t), newAuth(t)
	var h [4]provauth.Root
	for i, txn := range fixture() {
		if err := honest.Append(ctx, txn); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			txn = []provstore.Record{rec(3, provstore.OpInsert, "T/forged", "")}
		}
		if err := fork.Append(ctx, txn); err != nil {
			t.Fatal(err)
		}
		if err := honest.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		var err error
		if h[i+1], err = honest.Root(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := fork.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	f3, err := fork.Root(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Size != h[3].Size || f3.Hash == h[3].Hash {
		t.Fatalf("fork root %v must differ from %v at the same size", f3, h[3])
	}
	audit := func(a provauth.Authority, from, to provauth.Root) []provauth.Hash {
		hashes, err := a.Consistency(ctx, from.Size, to.Size)
		if err != nil {
			t.Fatal(err)
		}
		return hashes
	}
	forgedH1 := h[1]
	forgedH1.Hash[0] ^= 1

	type step struct {
		root   provauth.Root
		since  provauth.Root
		audit  []provauth.Hash
		fails  bool          // the root must be refused with ErrVerify
		want   provauth.Root // the anchor after the step
		during *step
	}
	for _, tc := range []struct {
		name    string
		steps   []step
		fetches int
	}{
		{"first use", []step{{root: h[2], want: h[2]}}, 0},
		{"extend", []step{{root: h[1], want: h[1]}, {root: h[3], want: h[3]}}, 1},
		{"older prefix", []step{{root: h[3], want: h[3]}, {root: h[1], want: h[3]}, {root: h[3], want: h[3]}}, 1},
		{"forged older root", []step{{root: h[3], want: h[3]}, {root: forgedH1, fails: true, want: h[3]}}, 1},
		{"same-size fork", []step{{root: h[3], want: h[3]}, {root: f3, fails: true, want: h[3]}}, 0},
		{"fork extending the anchor", []step{{root: h[2], want: h[2]}, {root: f3, since: h[2], audit: audit(fork, h[2], f3), want: f3}, {root: h[3], fails: true, want: f3}}, 0},
		{"audit from the anchor", []step{{root: h[1], want: h[1]}, {root: h[3], since: h[1], audit: audit(honest, h[1], h[3]), want: h[3]}}, 0},
		{"audit raced an advance", []step{
			{root: h[1], want: h[1]},
			{root: h[2], since: h[1], audit: audit(honest, h[1], h[2]), want: h[2]},
			{root: h[3], since: h[1], audit: audit(honest, h[1], h[3]), want: h[3]},
		}, 1},
		{"raced past by an advance", []step{
			{root: h[1], want: h[1]},
			{root: h[3], since: h[1], audit: audit(honest, h[1], h[3]), want: h[3]},
			{root: h[2], since: h[1], audit: audit(honest, h[1], h[2]), want: h[3]},
		}, 1},
		{"below since", []step{{root: h[3], want: h[3]}, {root: h[1], since: h[3], fails: true, want: h[3]}}, 0},
		{"fork raced an advance", []step{
			{root: h[2], want: h[2]},
			{root: h[3], since: h[2], audit: audit(honest, h[2], h[3]), want: h[3]},
			{root: f3, since: h[2], audit: audit(fork, h[2], f3), fails: true, want: h[3]},
		}, 0},
		{"advance during the fetch", []step{
			{root: h[1], want: h[1]},
			{root: h[2], want: h[3], during: &step{root: h[3], since: h[1], audit: audit(honest, h[1], h[3])}},
		}, 2},
		{"fork during the fetch", []step{
			{root: h[2], want: h[2]},
			{root: h[3], fails: true, want: f3, during: &step{root: f3, since: h[2], audit: audit(fork, h[2], f3)}},
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pinFile := filepath.Join(t.TempDir(), "root.pin")
			anchor := provauth.NewAnchor(pinFile)
			if _, ok, err := anchor.Root(); ok || err != nil {
				t.Fatalf("a fresh anchor holds a root (%v, %v)", ok, err)
			}
			auth := &countingAuth{Authority: honest}
			for i, s := range tc.steps {
				if d := s.during; d != nil {
					auth.during = func() {
						if err := anchor.Admit(ctx, auth, d.root, d.since, d.audit); err != nil {
							t.Errorf("step %d: admitting %v during the fetch: %v", i, d.root, err)
						}
					}
				}
				err := anchor.Admit(ctx, auth, s.root, s.since, s.audit)
				if s.fails != (err != nil) || s.fails && !errors.Is(err, provauth.ErrVerify) {
					t.Fatalf("step %d: admitting %v = %v, want refusal %v with ErrVerify", i, s.root, err, s.fails)
				}
				if got, ok, err := anchor.Root(); !ok || err != nil || got != s.want {
					t.Fatalf("step %d: anchor %v (%v, %v), want %v", i, got, ok, err, s.want)
				}
				if pin, ok, err := provauth.LoadPin(pinFile); !ok || err != nil || pin != s.want {
					t.Fatalf("step %d: pin file %v (%v, %v), want %v", i, pin, ok, err, s.want)
				}
			}
			if auth.fetches != tc.fetches {
				t.Errorf("fetched %d consistency proofs, want %d", auth.fetches, tc.fetches)
			}
			want := tc.steps[len(tc.steps)-1].want
			if got, _, err := provauth.NewAnchor(pinFile).Root(); err != nil || got != want {
				t.Errorf("a new anchor over the pin file starts at %v (%v), want %v", got, err, want)
			}
		})
	}
}
