package provauth

import (
	"fmt"
	"testing"
)

// refMTH is the straight RFC 6962 MTH definition — the executable spec the
// incremental tree is checked against.
func refMTH(leaves [][]byte) Hash {
	n := uint64(len(leaves))
	if n == 0 {
		return emptyRoot()
	}
	if n == 1 {
		return leafHash(leaves[0])
	}
	k := split(n)
	return nodeHash(refMTH(leaves[:k]), refMTH(leaves[k:]))
}

func testLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return leaves
}

func buildTree(leaves [][]byte) *merkle {
	t := &merkle{}
	for _, l := range leaves {
		t.appendLeaf(leafHash(l))
	}
	return t
}

// TestRootsMatchReference: every historical root of the incremental tree
// equals the from-scratch MTH over that prefix.
func TestRootsMatchReference(t *testing.T) {
	const max = 65
	leaves := testLeaves(max)
	tree := buildTree(leaves)
	for n := 0; n <= max; n++ {
		want := refMTH(leaves[:n])
		got := tree.rootAt(uint64(n))
		if got != want {
			t.Fatalf("rootAt(%d) = %s, reference %s", n, got, want)
		}
	}
}

// TestInclusionProofs: every (leaf, size) pair proves and verifies, and a
// proof for the wrong leaf data, index, or root fails.
func TestInclusionProofs(t *testing.T) {
	const max = 33
	leaves := testLeaves(max)
	tree := buildTree(leaves)
	for n := 1; n <= max; n++ {
		root := Root{Size: uint64(n), Hash: tree.rootAt(uint64(n))}
		for m := 0; m < n; m++ {
			p := Proof{LeafIndex: uint64(m), TreeSize: uint64(n), Audit: tree.inclusion(uint64(m), uint64(n))}
			if err := verifyInclusion(root, leaves[m], p); err != nil {
				t.Fatalf("inclusion(%d of %d): %v", m, n, err)
			}
			if err := verifyInclusion(root, []byte("evil"), p); err == nil {
				t.Fatalf("inclusion(%d of %d) verified altered leaf data", m, n)
			}
			if n > 1 {
				wrong := p
				wrong.LeafIndex = (p.LeafIndex + 1) % uint64(n)
				if err := verifyInclusion(root, leaves[m], wrong); err == nil {
					t.Fatalf("inclusion(%d of %d) verified at wrong index", m, n)
				}
			}
			badRoot := root
			badRoot.Hash[0] ^= 0x01
			if err := verifyInclusion(badRoot, leaves[m], p); err == nil {
				t.Fatalf("inclusion(%d of %d) verified against corrupted root", m, n)
			}
		}
	}
}

// TestConsistencyProofs: every (old, new) size pair connects, and flipping
// any audit hash, either root, or swapping direction fails.
func TestConsistencyProofs(t *testing.T) {
	const max = 33
	leaves := testLeaves(max)
	tree := buildTree(leaves)
	roots := make([]Root, max+1)
	for n := 0; n <= max; n++ {
		roots[n] = Root{Size: uint64(n), Hash: tree.rootAt(uint64(n))}
	}
	for oldN := 0; oldN <= max; oldN++ {
		for newN := oldN; newN <= max; newN++ {
			audit := tree.consistency(uint64(oldN), uint64(newN))
			if err := VerifyConsistency(roots[oldN], roots[newN], audit); err != nil {
				t.Fatalf("consistency(%d -> %d): %v", oldN, newN, err)
			}
			if oldN > 0 && newN > oldN {
				for i := range audit {
					bad := append([]Hash(nil), audit...)
					bad[i][7] ^= 0x80
					if err := VerifyConsistency(roots[oldN], roots[newN], bad); err == nil {
						t.Fatalf("consistency(%d -> %d) verified with audit[%d] flipped", oldN, newN, i)
					}
				}
				badOld := roots[oldN]
				badOld.Hash[3] ^= 0x01
				if err := VerifyConsistency(badOld, roots[newN], audit); err == nil {
					t.Fatalf("consistency(%d -> %d) verified a forged old root", oldN, newN)
				}
				badNew := roots[newN]
				badNew.Hash[3] ^= 0x01
				if err := VerifyConsistency(roots[oldN], badNew, audit); err == nil {
					t.Fatalf("consistency(%d -> %d) verified a forged new root", oldN, newN)
				}
				if err := VerifyConsistency(roots[newN], roots[oldN], audit); err == nil {
					t.Fatalf("consistency(%d -> %d) verified backwards — a rollback passed", newN, oldN)
				}
			}
		}
	}
}

// TestDivergedHistory: two trees sharing a prefix but diverging at one
// leaf can never be connected by a consistency proof — the rewritten
// history a pinned client must detect after a tamper-and-rebuild.
func TestDivergedHistory(t *testing.T) {
	leaves := testLeaves(12)
	honest := buildTree(leaves)
	leaves[5] = []byte("rewritten")
	forged := buildTree(leaves)

	oldRoot := Root{Size: 8, Hash: honest.rootAt(8)}
	newRoot := Root{Size: 12, Hash: forged.rootAt(12)}
	if err := VerifyConsistency(oldRoot, newRoot, forged.consistency(8, 12)); err == nil {
		t.Fatal("consistency proof connected a rewritten history to the honest pin")
	}
	if err := VerifyConsistency(oldRoot, newRoot, honest.consistency(8, 12)); err == nil {
		t.Fatal("honest audit path connected the honest pin to a forged root")
	}
}

// TestProofCodec: encode/decode round-trips, and truncation or absurd
// lengths fail cleanly.
func TestProofCodec(t *testing.T) {
	tree := buildTree(testLeaves(20))
	p := Proof{LeafIndex: 7, TreeSize: 20, Audit: tree.inclusion(7, 20)}
	buf := p.AppendBinary(nil)
	got, n, err := DecodeProof(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeProof: %v (consumed %d of %d)", err, n, len(buf))
	}
	if got.LeafIndex != p.LeafIndex || got.TreeSize != p.TreeSize || len(got.Audit) != len(p.Audit) {
		t.Fatalf("DecodeProof round-trip mismatch: %+v != %+v", got, p)
	}
	for i := range buf {
		if _, _, err := DecodeProof(buf[:i]); err == nil {
			t.Fatalf("DecodeProof accepted truncation at %d", i)
		}
	}
}

// TestRootStringRoundTrip covers the header/pin-file text form.
func TestRootStringRoundTrip(t *testing.T) {
	tree := buildTree(testLeaves(5))
	r := Root{Size: 5, Tid: 42, Hash: tree.rootAt(5)}
	got, err := ParseRoot(r.String())
	if err != nil || got != r {
		t.Fatalf("ParseRoot(%q) = %+v, %v", r.String(), got, err)
	}
	for _, bad := range []string{"", "5:42", "x:1:ff", "5:42:zz", "5:-1:" + r.Hash.String()} {
		if _, err := ParseRoot(bad); err == nil {
			t.Fatalf("ParseRoot accepted %q", bad)
		}
	}
}
