// Package provstore implements the provenance store of Buneman, Chapman &
// Cheney (SIGMOD 2006): the Prov(Tid, Op, Loc, Src) relation and the four
// storage strategies evaluated in the paper — naïve (N), transactional (T),
// hierarchical (H), and hierarchical-transactional (HT).
//
// A Tracker intercepts the effects of insert/delete/copy operations on the
// target database and persists provenance records through a Backend (the
// "provenance database" P of the paper's Figure 2). The Backend interface is
// implemented in-memory (MemBackend) and on the relational storage engine
// (see package relprov), and may be wrapped to charge simulated network
// round trips.
package provstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/path"
)

// OpKind is the Op column of the Prov relation: I (insert), C (copy), or
// D (delete).
type OpKind byte

// The three record kinds.
const (
	OpInsert OpKind = 'I'
	OpCopy   OpKind = 'C'
	OpDelete OpKind = 'D'
)

// String returns "I", "C" or "D".
func (k OpKind) String() string {
	switch k {
	case OpInsert, OpCopy, OpDelete:
		return string(rune(k))
	default:
		return fmt.Sprintf("OpKind(0x%02x)", byte(k))
	}
}

// Valid reports whether k is one of the three record kinds.
func (k OpKind) Valid() bool {
	return k == OpInsert || k == OpCopy || k == OpDelete
}

// A Record is one row of the Prov (or HProv) relation:
// Prov(Tid, Op, Loc, Src). Src is meaningful only for copies; it is the
// paper's ⊥ otherwise and renders as such. {Tid, Loc} is a key: within one
// transaction each location is inserted, deleted, or copied at most once.
type Record struct {
	Tid int64
	Op  OpKind
	Loc path.Path
	Src path.Path // zero Path (⊥) unless Op == OpCopy
}

// String renders the record as a Figure 5 table row.
func (r Record) String() string {
	src := "⊥"
	if r.Op == OpCopy {
		src = r.Src.String()
	}
	return fmt.Sprintf("%d %s %s %s", r.Tid, r.Op, r.Loc, src)
}

// Validate checks the structural invariants of a record.
func (r Record) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("provstore: invalid op %v", r.Op)
	}
	if r.Loc.IsRoot() {
		return errors.New("provstore: record location must not be the forest root")
	}
	if r.Op == OpCopy && r.Src.IsRoot() {
		return errors.New("provstore: copy record requires a source")
	}
	if r.Op != OpCopy && !r.Src.IsRoot() {
		return fmt.Errorf("provstore: %s record must have ⊥ source", r.Op)
	}
	return nil
}

// AppendBinary appends a self-contained binary encoding of the record:
// tid uvarint, op byte, loc (length-prefixed), src (length-prefixed). These
// bytes are the Merkle leaf preimage (provauth) and the body of a record
// frame on the wire (provhttp), so the form is fixed.
func (r Record) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Tid))
	buf = append(buf, byte(r.Op))
	buf = appendPath(buf, r.Loc)
	return appendPath(buf, r.Src)
}

// appendPath appends p's binary encoding behind its uvarint length.
func appendPath(buf []byte, p path.Path) []byte {
	return p.AppendBinary(binary.AppendUvarint(buf, uint64(p.BinaryLen())))
}

// DecodeRecord decodes a record encoded by AppendBinary from the front of
// buf, returning the record and bytes consumed. The bytes may come from
// outside the program: what decodes is a valid record.
func DecodeRecord(buf []byte) (Record, int, error) {
	return DecodeRecordWith(buf, decodePath)
}

func decodePath(b []byte) (path.Path, error) { return path.DecodeBinaryString(string(b)) }

// DecodeRecordWith is DecodeRecord with each path's encoding handed to
// decode, which must accept exactly what path.DecodeBinaryString accepts, with
// the same result. A decode hot path uses it to answer repeated locations
// from an intern table instead of making a new string per path; decode must
// not keep b.
func DecodeRecordWith(buf []byte, decode func(b []byte) (path.Path, error)) (Record, int, error) {
	var r Record
	tid, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, 0, errors.New("provstore: bad tid varint")
	}
	off := n
	if off >= len(buf) {
		return r, 0, errors.New("provstore: truncated record")
	}
	r.Tid = int64(tid)
	r.Op = OpKind(buf[off])
	off++
	var err error
	if r.Loc, off, err = decodePathAt(buf, off, decode); err != nil {
		return r, 0, err
	}
	if r.Src, off, err = decodePathAt(buf, off, decode); err != nil {
		return r, 0, err
	}
	if err := r.Validate(); err != nil {
		return r, 0, err
	}
	return r, off, nil
}

// decodePathAt decodes the length-prefixed path at buf[off:] and returns the
// offset behind it.
func decodePathAt(buf []byte, off int, decode func(b []byte) (path.Path, error)) (path.Path, int, error) {
	l, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return path.Root, 0, errors.New("provstore: bad path length varint")
	}
	off += n
	if uint64(len(buf)-off) < l {
		return path.Root, 0, errors.New("provstore: truncated path")
	}
	p, err := decode(buf[off : off+int(l)])
	return p, off + int(l), err
}

// EncodedSize returns the size in bytes of the binary encoding of r, which
// the storage-size experiments report alongside row counts. It counts what
// AppendBinary would append, encoding nothing.
func (r Record) EncodedSize() int {
	loc, src := r.Loc.BinaryLen(), r.Src.BinaryLen()
	return uvarintLen(uint64(r.Tid)) + 1 + uvarintLen(uint64(loc)) + loc + uvarintLen(uint64(src)) + src
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Method identifies one of the four provenance storage strategies.
type Method int

// The four methods, in the paper's presentation order.
const (
	Naive         Method = iota // N: one record per touched node, immediate
	Hierarchical                // H: one record per operation, immediate
	Transactional               // T: net per-node records buffered until commit
	HierTrans                   // HT: net per-operation records buffered until commit
)

// AllMethods lists the four methods in the order the paper's figures use
// (N, H, T, HT).
var AllMethods = []Method{Naive, Hierarchical, Transactional, HierTrans}

// String returns the paper's abbreviation: N, H, T, or HT.
func (m Method) String() string {
	switch m {
	case Naive:
		return "N"
	case Hierarchical:
		return "H"
	case Transactional:
		return "T"
	case HierTrans:
		return "HT"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// LongName returns the method's full name as used in the paper's prose.
func (m Method) LongName() string {
	switch m {
	case Naive:
		return "naive"
	case Hierarchical:
		return "hierarchical"
	case Transactional:
		return "transactional"
	case HierTrans:
		return "hierarchical-transactional"
	default:
		return m.String()
	}
}

// Deferred reports whether the method buffers records until commit, i.e.
// T or HT.
func (m Method) Deferred() bool { return m == Transactional || m == HierTrans }

// ParseMethod parses "N", "T", "H", "HT" (case-insensitive, also accepting
// the long names).
func ParseMethod(s string) (Method, error) {
	switch s {
	case "N", "n", "naive":
		return Naive, nil
	case "H", "h", "hierarchical":
		return Hierarchical, nil
	case "T", "t", "transactional":
		return Transactional, nil
	case "HT", "ht", "Ht", "hierarchical-transactional":
		return HierTrans, nil
	default:
		return 0, fmt.Errorf("provstore: unknown method %q", s)
	}
}
