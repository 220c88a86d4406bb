package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// ColType is the type of a column.
type ColType byte

// Supported column types.
const (
	TInt   ColType = 'i' // int64
	TStr   ColType = 's' // string
	TBytes ColType = 'b' // []byte
	TPath  ColType = 'p' // []byte: a path encoding, empty or non-empty labels each ended by 0x00
)

// A Value is one typed cell of a row: int64, string, or []byte.
type Value any

// A Row is a sequence of values matching a table's columns.
type Row []Value

// --- order-preserving key encoding ---------------------------------------
//
// Keys must compare correctly under bytes.Compare:
//
//	int64  → a header byte, then the value's significant bytes big-endian:
//	         0x80+n and n bytes for v ≥ 0 (0 is 0x80 alone), 0x7f−n and
//	         the n low bytes of v for v < 0 (−1 is 0x7f alone), n the
//	         fewest bytes that hold v — at most 8, so a field is 1 to 9
//	         bytes. A longer value has a header further from 0x80 on its
//	         side, so the headers order the lengths and the bytes order
//	         the values of one length; only the minimal form decodes.
//	string/[]byte → 0x00 escaped as 0x01 0x02, 0x01 as 0x01 0x03, then a
//	               0x00 terminator (so shorter strings sort first)
//	path   → the bytes as they are, then one 0x00 (see validPathField)

// intKeyBytes returns the number of significant bytes of v in the key
// encoding: those of v for v ≥ 0, those of ^v (the bytes that are not all
// ones in v) for v < 0.
func intKeyBytes(v int64) int {
	u := uint64(v)
	if v < 0 {
		u = ^u
	}
	return (bits.Len64(u) + 7) / 8
}

// AppendKeyInt appends the order-preserving encoding of an int64.
func AppendKeyInt(buf []byte, v int64) []byte {
	n := intKeyBytes(v)
	h := byte(0x80 + n)
	if v < 0 {
		h = byte(0x7f - n)
	}
	buf = append(buf, h)
	for i := n - 1; i >= 0; i-- {
		buf = append(buf, byte(uint64(v)>>(8*i)))
	}
	return buf
}

// DecodeKeyInt decodes an int64 from the front of buf, returning the value
// and remaining bytes. It accepts the minimal encoding of a value only, so
// every int has one encoding and a key one decoding.
func DecodeKeyInt(buf []byte) (int64, []byte, error) {
	if len(buf) == 0 {
		return 0, nil, errShortInt
	}
	h := int(buf[0])
	n, neg := h-0x80, h < 0x80
	if neg {
		n = 0x7f - h
	}
	if n > 8 {
		return 0, nil, errIntForm
	}
	if len(buf) <= n {
		return 0, nil, errShortInt
	}
	var u uint64
	if len(buf) > 8 { // one load; a shift of 64 leaves 0
		u = binary.BigEndian.Uint64(buf[1:]) >> (64 - 8*n)
	} else {
		for _, c := range buf[1 : 1+n] {
			u = u<<8 | uint64(c)
		}
	}
	if neg && n < 8 {
		u |= ^uint64(0) << (8 * n) // the bytes above the n stored are all ones
	}
	// Minimal: the value has the header's sign and needs all n bytes.
	if v := int64(u); v < 0 != neg || intKeyBytes(v) != n {
		return 0, nil, errIntForm
	}
	return int64(u), buf[1+n:], nil
}

// What an int key field that is not one can get wrong.
var (
	errShortInt = errors.New("relstore: short int key")
	errIntForm  = errors.New("relstore: malformed int key")
)

// appendKeyBytes appends the order-preserving escaped encoding of a byte
// string.
func appendKeyBytes(buf, v []byte) []byte {
	for _, c := range v {
		switch c {
		case 0x00:
			buf = append(buf, 0x01, 0x02)
		case 0x01:
			buf = append(buf, 0x01, 0x03)
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, 0x00)
}

// encodeKey encodes a sequence of typed values as an order-preserving
// composite key.
func encodeKey(types []ColType, vals []Value) ([]byte, error) {
	if len(types) < len(vals) {
		return nil, fmt.Errorf("relstore: %d key values for %d columns", len(vals), len(types))
	}
	var buf []byte
	for i, v := range vals {
		var err error
		buf, err = appendKeyValue(buf, types[i], v)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendKeyValue(buf []byte, t ColType, v Value) ([]byte, error) {
	switch t {
	case TInt:
		iv, ok := asInt(v)
		if !ok {
			return nil, fmt.Errorf("relstore: value %v (%T) is not an int", v, v)
		}
		return AppendKeyInt(buf, iv), nil
	case TStr:
		sv, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("relstore: value %v (%T) is not a string", v, v)
		}
		return appendKeyBytes(buf, []byte(sv)), nil
	case TBytes:
		bv, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("relstore: value %v (%T) is not bytes", v, v)
		}
		return appendKeyBytes(buf, bv), nil
	case TPath:
		pv, ok := v.([]byte)
		if !ok || !validPathField(pv) {
			return nil, fmt.Errorf("relstore: value %q (%T) is not a path encoding", v, v)
		}
		return AppendKeyPath(buf, pv), nil
	default:
		return nil, fmt.Errorf("relstore: unknown column type %c", t)
	}
}

// decodeKeyBytes undoes appendKeyBytes: it appends the byte string encoded at
// the front of key to dst and returns the bytes after its terminator.
func decodeKeyBytes(dst, key []byte) (val, rest []byte, err error) {
	for i := 0; i < len(key); i++ {
		switch c := key[i]; c {
		case 0x00:
			return dst, key[i+1:], nil
		case 0x01:
			if i++; i == len(key) || key[i] != 0x02 && key[i] != 0x03 {
				return nil, nil, errors.New("relstore: bad escape in key field")
			}
			dst = append(dst, key[i]-0x02)
		default:
			dst = append(dst, c)
		}
	}
	return nil, nil, errors.New("relstore: unterminated key field")
}

// validPathField reports whether v can be stored in a TPath column: it is
// empty, or a run of non-empty fields each ended by one 0x00 — it does not
// start with 0x00, ends with 0x00 and never holds two 0x00s in a row. A
// path's binary encoding is one (labels are non-empty and escape their
// 0x00s), the empty encoding the root's.
//
// Such a field delimits itself in a key, where it is stored as its bytes and
// one more 0x00: it ends at the first 0x00 that opens it or follows another
// 0x00. A field sorts before every longer field it is a prefix of — its
// closing 0x00 meets a byte that opens a label, never 0x00 — so a parent
// path sorts before its descendants, and whatever key fields follow do not
// change the order of two different fields.
func validPathField(v []byte) bool {
	return len(v) == 0 || v[0] != 0x00 && v[len(v)-1] == 0x00 && !bytes.Contains(v, pathFieldEnd)
}

// pathFieldEnd is the two bytes that end a non-empty path field in a key:
// its last label's terminator and the field's closing 0x00.
var pathFieldEnd = []byte{0x00, 0x00}

// AppendKeyPath appends the key form of a TPath field: enc, which must be
// empty or a path encoding (no leading 0x00, no two 0x00s in a row, a 0x00
// last), and one 0x00. The table codec checks enc; a caller that builds keys itself
// out of a path's encoding need not.
func AppendKeyPath(buf, enc []byte) []byte {
	return append(append(buf, enc...), 0x00)
}

// DecodeKeyPath splits the TPath field at the front of key: enc is the field
// without its closing 0x00, a subslice of key that is a path encoding as
// AppendKeyPath requires, and rest the bytes after it. No byte is copied or
// unescaped.
func DecodeKeyPath(key []byte) (enc, rest []byte, err error) {
	if len(key) > 0 && key[0] == 0x00 {
		return key[:0], key[1:], nil
	}
	i := bytes.Index(key, pathFieldEnd)
	if i < 0 {
		return nil, nil, errors.New("relstore: unterminated path key field")
	}
	return key[:i+1], key[i+2:], nil
}

// decodeKey undoes encodeKey for a key that holds every column of types and
// nothing after them.
func decodeKey(types []ColType, key []byte) ([]Value, error) {
	vals := make([]Value, len(types))
	for i, t := range types {
		switch t {
		case TInt:
			v, rest, err := DecodeKeyInt(key)
			if err != nil {
				return nil, err
			}
			vals[i], key = v, rest
		case TStr, TBytes:
			b, rest, err := decodeKeyBytes([]byte{}, key)
			if err != nil {
				return nil, err
			}
			if key = rest; t == TStr {
				vals[i] = string(b)
			} else {
				vals[i] = b
			}
		case TPath:
			enc, rest, err := DecodeKeyPath(key)
			if err != nil {
				return nil, err
			}
			vals[i], key = bytes.Clone(enc), rest
		default:
			return nil, fmt.Errorf("relstore: unknown column type %c", t)
		}
	}
	if len(key) != 0 {
		return nil, fmt.Errorf("relstore: %d trailing bytes after key", len(key))
	}
	return vals, nil
}

// keyValueLen returns the length appendKeyValue encodes v in, v being of type
// t.
func keyValueLen(t ColType, v Value) int {
	var n int
	switch v := v.(type) {
	case string:
		n = len(v) + strings.Count(v, "\x00") + strings.Count(v, "\x01")
	case []byte:
		if n = len(v); t != TPath {
			n += bytes.Count(v, []byte{0x00}) + bytes.Count(v, []byte{0x01})
		}
	default:
		iv, _ := asInt(v)
		return 1 + intKeyBytes(iv)
	}
	return n + 1
}

func asInt(v Value) (int64, bool) {
	switch v := v.(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	case int32:
		return int64(v), true
	}
	return 0, false
}

// --- row encoding ----------------------------------------------------------
//
// A row's non-key columns are stored (in primary leaf values) with a compact
// non-ordered encoding: int64 as zigzag varint, strings/bytes
// length-prefixed. Its key columns are stored once, in the key.

// valueLen returns the bytes appendValue takes for v, or at most that for
// an int.
func valueLen(v Value) int {
	switch v := v.(type) {
	case string:
		return uvarintLen(len(v)) + len(v)
	case []byte:
		return uvarintLen(len(v)) + len(v)
	default:
		return binary.MaxVarintLen64
	}
}

// appendValue appends v, column i of a row of the row codec, as type t.
func appendValue(buf []byte, i int, t ColType, v Value) ([]byte, error) {
	switch t {
	case TInt:
		iv, ok := asInt(v)
		if !ok {
			return nil, fmt.Errorf("relstore: column %d: %v (%T) is not an int", i, v, v)
		}
		return binary.AppendVarint(buf, iv), nil
	case TStr:
		sv, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("relstore: column %d: %v (%T) is not a string", i, v, v)
		}
		return append(binary.AppendUvarint(buf, uint64(len(sv))), sv...), nil
	case TBytes, TPath:
		bv, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("relstore: column %d: %v (%T) is not bytes", i, v, v)
		}
		if t == TPath && !validPathField(bv) {
			return nil, fmt.Errorf("relstore: column %d: %q is not a path encoding", i, bv)
		}
		return append(binary.AppendUvarint(buf, uint64(len(bv))), bv...), nil
	default:
		return nil, fmt.Errorf("relstore: unknown column type %c", t)
	}
}

// decodeRow undoes appendValue, column by column.
func decodeRow(types []ColType, buf []byte) (Row, error) {
	row := make(Row, 0, len(types))
	for i, t := range types {
		switch t {
		case TInt:
			v, n := binary.Varint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("relstore: column %d: bad varint", i)
			}
			buf = buf[n:]
			row = append(row, v)
		case TStr, TBytes, TPath:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, fmt.Errorf("relstore: column %d: bad length", i)
			}
			data := buf[n : n+int(l)]
			if t == TPath && !validPathField(data) {
				return nil, fmt.Errorf("relstore: column %d: %q is not a path encoding", i, data)
			}
			if t == TStr {
				row = append(row, string(data))
			} else {
				out := make([]byte, len(data))
				copy(out, data)
				row = append(row, out)
			}
			buf = buf[n+int(l):]
		default:
			return nil, fmt.Errorf("relstore: unknown column type %c", t)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("relstore: %d trailing bytes after row", len(buf))
	}
	return row, nil
}
