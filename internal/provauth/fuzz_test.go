package provauth

import (
	"bytes"
	"testing"
)

// FuzzProof hammers the proof decode/verify path with attacker-controlled
// bytes: DecodeProof then verifyInclusion must never panic or allocate
// absurdly, anything that decodes must re-encode to the bytes consumed, and
// a genuine proof must stop verifying under any single bit flip of the
// proof bytes, the root hash, or the leaf data — the fail-closed guarantee
// the pinned client leans on.
//
// Run with: go test -run xxx -fuzz FuzzProof -fuzztime 10s ./internal/provauth
func FuzzProof(f *testing.F) {
	leaves := testLeaves(12)
	tree := buildTree(leaves)
	root := Root{Size: 12, Tid: 3, Hash: tree.rootAt(12)}
	genuine := Proof{LeafIndex: 5, TreeSize: 12, Audit: tree.inclusion(5, 12)}
	genuineBytes := genuine.AppendBinary(nil)

	f.Add(genuineBytes, []byte("leaf-5"), uint16(0))
	f.Add(genuineBytes, []byte("leaf-5"), uint16(7))
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte("x"), uint16(3))
	f.Fuzz(func(t *testing.T, raw, leaf []byte, flip uint16) {
		// Arbitrary bytes: decode may fail, must not panic; on success the
		// re-encoding must equal exactly what was consumed.
		if p, n, err := DecodeProof(raw); err == nil {
			if got := p.AppendBinary(nil); !bytes.Equal(got, raw[:n]) {
				t.Fatalf("DecodeProof/AppendBinary round trip: %x -> %x", raw[:n], got)
			}
			_ = verifyInclusion(root, leaf, p) // must not panic either way
		}

		// A genuine proof with one bit flipped anywhere must stop verifying.
		if err := verifyInclusion(root, []byte("leaf-5"), genuine); err != nil {
			t.Fatalf("genuine proof failed: %v", err)
		}
		mut := append([]byte(nil), genuineBytes...)
		bit := int(flip) % (len(mut) * 8)
		mut[bit/8] ^= 1 << (bit % 8)
		if p, _, err := DecodeProof(mut); err == nil {
			if verifyInclusion(root, []byte("leaf-5"), p) == nil && !bytes.Equal(mut, genuineBytes) {
				t.Fatalf("bit-flipped proof (bit %d) still verified", bit)
			}
		}
		badRoot := root
		badRoot.Hash[int(flip)%len(badRoot.Hash)] ^= 1 << (flip % 8)
		if verifyInclusion(badRoot, []byte("leaf-5"), genuine) == nil {
			t.Fatalf("flipped root (byte %d) still verified", int(flip)%len(badRoot.Hash))
		}
	})
}
