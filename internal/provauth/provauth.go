// Package provauth makes the provenance store tamper-evident: an
// incremental Merkle history tree (RFC-6962 style) maintained over the
// append-only (Tid, Loc)-ordered record sequence, alongside any backend.
//
// The paper's provenance relation is a trust story — a record of who
// changed what is only as good as the store's word for it. This package
// replaces that word with proofs. Every committed transaction publishes a
// root hash; any answer the store gives — a point lookup, a streamed scan,
// a replica's shipped chunk — can then carry an inclusion proof that the
// client checks against a pinned root, and any two roots can be connected
// by a consistency proof showing the later tree extends the earlier one
// (nothing was rewritten, only appended).
//
// Structure:
//
//   - Leaves are the canonical binary encoding of records
//     (provstore.Record.AppendBinary), in (Tid, Loc) order — exactly the
//     All() scan order, which is what makes the tree deterministically
//     rebuildable from any existing store at open time.
//   - leaf hash = SHA-256(0x00 ‖ encoding), interior node =
//     SHA-256(0x01 ‖ left ‖ right): the RFC 6962 domain separation, so a
//     leaf can never be confused with a node.
//   - A transaction seals when a higher-tid append arrives, or on
//     Flush/Close. Sealing appends the transaction's records to the tree
//     in Loc order and publishes the new root (size, tid, hash).
//     Incremental maintenance is O(log n) per leaf.
//
// The Authority surface is four calls: Root (the current head), ProveAt
// (one record against a historical head), Consistency (one head extends
// another) and ScanProven (any scan, every record stamped with its proof
// against one root). There is no separate point proof: one record's proof
// is the first record of a proven point scan, the shape of a urkel-style
// Prove(key) — the value together with its proof.
//
// The AuthBackend wrapper (composable via the verified://?inner=DSN
// driver) carries the tree next to any inner backend; provhttp publishes
// its roots and proofs over /v1/root, /v1/prove and /v1/consistency and
// stamps streamed answers; the cpdb:// client's ?verify=pin mode checks
// every answer against a persisted pinned root, failing closed on
// mismatch; provrepl appliers verify shipped chunks before applying. Both
// verifiers admit roots by one rule, an Anchor: trust on first use, then
// only roots a consistency proof connects to the anchored one.
//
// Failure semantics are deliberately loud: appending to a sealed
// transaction is ErrSealed (the tree cannot insert into the past), proving
// an uncommitted record is ErrUnsealed, and a record the store returns but
// the tree never saw is ErrNotInLog — the tamper signal.
package provauth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/path"
	"repro/internal/provstore"
)

// Hash is one SHA-256 digest — a leaf hash, node hash, or root hash.
type Hash [sha256.Size]byte

// String returns the lowercase hex form.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the hex form produced by String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return h, fmt.Errorf("provauth: %q is not a %d-byte hex hash", s, len(h))
	}
	copy(h[:], b)
	return h, nil
}

// RFC 6962 domain-separation prefixes: a leaf hash and an interior node
// hash can never collide, whatever the leaf content.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// leafHash hashes one canonical record encoding as a tree leaf.
func leafHash(encoded []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(encoded)
	var out Hash
	h.Sum(out[:0])
	return out
}

// recordLeafHash returns the leaf hash of a record: SHA-256 over 0x00
// followed by the record's canonical binary encoding. Exposed so verifiers
// (clients, appliers, the CLI) recompute it from the record they received,
// never from anything the server sent.
func recordLeafHash(r provstore.Record) Hash {
	return leafHash(r.AppendBinary(nil))
}

// nodeHash combines two child hashes into their parent.
func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// emptyRoot is the root of the empty tree: SHA-256 of the empty string,
// per RFC 6962.
func emptyRoot() Hash { return sha256.Sum256(nil) }

// A Root is one published tree head: the root hash over the first Size
// leaves, sealed as of transaction Tid (0 for the empty tree). Clients pin
// one and advance it only over verified consistency proofs.
//
// Only Size and Hash are authenticated: inclusion and consistency proofs
// bind a root's hash to its leaf count and nothing else. Tid is advisory —
// a convenience label an honest server stamps from its last sealed
// transaction, which a dishonest one could set to anything. Verifiers must never let a
// decision rest on Tid alone; the record tids that matter are inside the
// leaves, covered by Hash. (Binding Tid would take a second commitment
// over the (tid, size) checkpoint mapping — noted in DESIGN.md §8.)
type Root struct {
	Size uint64 // leaves covered (records sealed); authenticated
	Tid  int64  // last sealed transaction id (0 if none); advisory, see above
	Hash Hash
}

// String renders "size:tid:hexhash" — the wire-header and pin-file form.
func (r Root) String() string {
	return fmt.Sprintf("%d:%d:%s", r.Size, r.Tid, r.Hash)
}

// ParseRoot parses the String form.
func ParseRoot(s string) (Root, error) {
	parts := strings.SplitN(strings.TrimSpace(s), ":", 3)
	if len(parts) != 3 {
		return Root{}, fmt.Errorf("provauth: root %q is not size:tid:hash", s)
	}
	size, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Root{}, fmt.Errorf("provauth: root %q: bad size: %w", s, err)
	}
	tid, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || tid < 0 {
		return Root{}, fmt.Errorf("provauth: root %q: bad tid", s)
	}
	h, err := ParseHash(parts[2])
	if err != nil {
		return Root{}, err
	}
	return Root{Size: size, Tid: tid, Hash: h}, nil
}

// A Proof is one inclusion proof: the audit path from leaf LeafIndex to
// the root of the tree at TreeSize leaves. It says nothing by itself — the
// verifier recomputes the leaf hash from the record it received and folds
// the path into a root, which must equal a root it trusts.
type Proof struct {
	LeafIndex uint64
	TreeSize  uint64
	Audit     []Hash
}

// maxAuditLen bounds a decoded audit path: a binary tree over at most 2^64
// leaves is 64 levels deep, so anything longer is garbage (and a decoder
// that believed it would be an allocation amplifier).
const maxAuditLen = 64

// AppendBinary appends a self-contained binary encoding of the proof:
// leaf index uvarint, tree size uvarint, audit length uvarint, raw hashes.
func (p Proof) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, p.LeafIndex)
	buf = binary.AppendUvarint(buf, p.TreeSize)
	buf = binary.AppendUvarint(buf, uint64(len(p.Audit)))
	for _, h := range p.Audit {
		buf = append(buf, h[:]...)
	}
	return buf
}

// uvarint is binary.Uvarint restricted to canonical (minimal-length)
// encodings, so decode∘encode is the identity on accepted proof bytes —
// no two byte strings name the same proof.
func uvarint(buf []byte) (uint64, int) {
	v, n := binary.Uvarint(buf)
	if n > 1 && buf[n-1] == 0 {
		return 0, 0 // padded encoding: the last group contributes nothing
	}
	return v, n
}

// DecodeProof decodes a proof encoded by AppendBinary from the front of
// buf, returning the proof and bytes consumed. It never panics on
// malformed input and rejects absurd audit lengths before allocating.
func DecodeProof(buf []byte) (Proof, int, error) {
	var p Proof
	off := 0
	for i, dst := range []*uint64{&p.LeafIndex, &p.TreeSize} {
		v, n := uvarint(buf[off:])
		if n <= 0 {
			return Proof{}, 0, fmt.Errorf("provauth: bad proof varint %d", i)
		}
		*dst = v
		off += n
	}
	count, n := uvarint(buf[off:])
	if n <= 0 {
		return Proof{}, 0, errors.New("provauth: bad audit length varint")
	}
	off += n
	if count > maxAuditLen {
		return Proof{}, 0, fmt.Errorf("provauth: audit path of %d hashes exceeds the %d-level maximum", count, maxAuditLen)
	}
	if uint64(len(buf)-off) < count*sha256.Size {
		return Proof{}, 0, errors.New("provauth: truncated audit path")
	}
	p.Audit = make([]Hash, count)
	for i := range p.Audit {
		copy(p.Audit[i][:], buf[off:])
		off += sha256.Size
	}
	return p, off, nil
}

// Verification errors. ErrVerify wraps every "the proof does not check
// out" failure so callers can fail closed on one sentinel.
var (
	// ErrVerify is the base verification failure: a proof, root, or record
	// that does not hash to what it claims.
	ErrVerify = errors.New("provauth: verification failed")
	// ErrSealed reports an append into a transaction at or below the last
	// sealed one — the authenticated log cannot insert into the past.
	ErrSealed = errors.New("provauth: transaction is already sealed")
	// ErrUnsealed reports a proof request for a record whose transaction
	// has not sealed yet (flush or commit a later transaction first).
	ErrUnsealed = errors.New("provauth: transaction is not sealed yet")
	// ErrNotInLog reports a record the store returned but the
	// authenticated log never admitted — the tamper/forgery signal.
	ErrNotInLog = errors.New("provauth: record is not in the authenticated log")
)

// verifyInclusion checks that leafData is the LeafIndex-th leaf of the
// tree whose head is root, per the proof's audit path (RFC 9162 §2.1.3.2).
// The caller supplies the leaf bytes it trusts (the record it received),
// never a hash the prover computed.
func verifyInclusion(root Root, leafData []byte, p Proof) error {
	if p.TreeSize != root.Size {
		return fmt.Errorf("%w: proof is against tree size %d, root covers %d", ErrVerify, p.TreeSize, root.Size)
	}
	if p.LeafIndex >= p.TreeSize {
		return fmt.Errorf("%w: leaf index %d outside tree of %d", ErrVerify, p.LeafIndex, p.TreeSize)
	}
	fn, sn := p.LeafIndex, p.TreeSize-1
	r := leafHash(leafData)
	for _, c := range p.Audit {
		if sn == 0 {
			return fmt.Errorf("%w: audit path too long", ErrVerify)
		}
		if fn%2 == 1 || fn == sn {
			r = nodeHash(c, r)
			if fn%2 == 0 {
				for fn%2 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, c)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("%w: audit path too short", ErrVerify)
	}
	if r != root.Hash {
		return fmt.Errorf("%w: inclusion proof folds to %s, root is %s", ErrVerify, r, root.Hash)
	}
	return nil
}

// VerifyRecord checks an inclusion proof for a record: the leaf bytes are
// recomputed from the record's canonical encoding, so a record altered in
// storage or on the wire cannot verify against an honest root.
func VerifyRecord(root Root, rec provstore.Record, p Proof) error {
	return verifyInclusion(root, rec.AppendBinary(nil), p)
}

// VerifyConsistency checks that the tree headed by newRoot is an
// append-only extension of the tree headed by oldRoot, per the audit
// hashes (RFC 9162 §2.1.4.2). An empty old tree is trivially a prefix of
// anything; equal sizes must carry equal hashes and an empty path.
func VerifyConsistency(oldRoot, newRoot Root, audit []Hash) error {
	switch {
	case oldRoot.Size > newRoot.Size:
		return fmt.Errorf("%w: old root covers %d leaves, new only %d — the log shrank", ErrVerify, oldRoot.Size, newRoot.Size)
	case oldRoot.Size == newRoot.Size:
		if oldRoot.Hash != newRoot.Hash {
			return fmt.Errorf("%w: equal sizes %d with different roots (history rewritten)", ErrVerify, oldRoot.Size)
		}
		if len(audit) != 0 {
			return fmt.Errorf("%w: consistency proof for equal trees must be empty", ErrVerify)
		}
		return nil
	case oldRoot.Size == 0:
		// The empty tree is a prefix of everything; nothing to check
		// beyond what the caller already trusts about newRoot.
		return nil
	}
	path := audit
	// When the old size is an exact power of two, the old root itself is a
	// node of the new tree and the proof omits it; prepend it.
	if oldRoot.Size&(oldRoot.Size-1) == 0 {
		path = append([]Hash{oldRoot.Hash}, path...)
	}
	if len(path) == 0 {
		return fmt.Errorf("%w: empty consistency proof for %d -> %d", ErrVerify, oldRoot.Size, newRoot.Size)
	}
	fn, sn := oldRoot.Size-1, newRoot.Size-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, c := range path[1:] {
		if sn == 0 {
			return fmt.Errorf("%w: consistency proof too long", ErrVerify)
		}
		if fn%2 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn%2 == 0 {
				for fn%2 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("%w: consistency proof too short", ErrVerify)
	}
	if fr != oldRoot.Hash {
		return fmt.Errorf("%w: consistency proof reconstructs old root %s, pinned %s", ErrVerify, fr, oldRoot.Hash)
	}
	if sr != newRoot.Hash {
		return fmt.Errorf("%w: consistency proof reconstructs new root %s, server says %s", ErrVerify, sr, newRoot.Hash)
	}
	return nil
}

// A ProvenRecord is one record with its inclusion proof and the root the
// proof is against — what a proven scan yields and a verifying applier or
// client consumes.
type ProvenRecord struct {
	Rec   provstore.Record
	Proof Proof
	Root  Root
}

// Verify recomputes the record's leaf hash and checks the proof against
// the carried root. The caller must separately decide whether it trusts
// that root (pin it, or connect it to a pin by consistency proof).
func (pr ProvenRecord) Verify() error {
	return VerifyRecord(pr.Root, pr.Rec, pr.Proof)
}

// recordKey is the tree's lookup key for a record, its {Tid, Loc} key.
type recordKey struct {
	tid int64
	loc path.Path
}
