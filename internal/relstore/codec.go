package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ColType is the type of a column.
type ColType byte

// Supported column types.
const (
	TInt   ColType = 'i' // int64
	TStr   ColType = 's' // string
	TBytes ColType = 'b' // []byte
)

// A Value is one typed cell of a row: int64, string, or []byte.
type Value any

// A Row is a sequence of values matching a table's columns.
type Row []Value

// --- order-preserving key encoding ---------------------------------------
//
// Keys must compare correctly under bytes.Compare:
//
//	int64  → 8 bytes big-endian with the sign bit flipped
//	string/[]byte → 0x00 escaped as 0x01 0x02, 0x01 as 0x01 0x03, then a
//	               0x00 terminator (so shorter strings sort first)

// AppendKeyInt appends the order-preserving encoding of an int64.
func AppendKeyInt(buf []byte, v int64) []byte {
	u := uint64(v) ^ (1 << 63)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return append(buf, b[:]...)
}

// DecodeKeyInt decodes an int64 from the front of buf, returning the value
// and remaining bytes.
func DecodeKeyInt(buf []byte) (int64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, errors.New("relstore: short int key")
	}
	u := binary.BigEndian.Uint64(buf) ^ (1 << 63)
	return int64(u), buf[8:], nil
}

// AppendKeyBytes appends the order-preserving escaped encoding of a byte
// string.
func AppendKeyBytes(buf, v []byte) []byte {
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

// EncodeKey encodes a sequence of typed values as an order-preserving
// composite key.
func EncodeKey(types []ColType, vals []Value) ([]byte, error) {
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
		return AppendKeyBytes(buf, []byte(sv)), nil
	case TBytes:
		bv, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("relstore: value %v (%T) is not bytes", v, v)
		}
		return AppendKeyBytes(buf, bv), nil
	default:
		return nil, fmt.Errorf("relstore: unknown column type %c", t)
	}
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
// Rows are stored (in leaf values) with a compact non-ordered encoding:
// int64 as zigzag varint, strings/bytes length-prefixed.

// EncodeRow encodes a full row per the column types.
func EncodeRow(types []ColType, row Row) ([]byte, error) {
	if len(row) != len(types) {
		return nil, fmt.Errorf("relstore: row has %d values, table has %d columns", len(row), len(types))
	}
	var buf []byte
	for i, v := range row {
		switch types[i] {
		case TInt:
			iv, ok := asInt(v)
			if !ok {
				return nil, fmt.Errorf("relstore: column %d: %v (%T) is not an int", i, v, v)
			}
			buf = binary.AppendVarint(buf, iv)
		case TStr:
			sv, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("relstore: column %d: %v (%T) is not a string", i, v, v)
			}
			buf = binary.AppendUvarint(buf, uint64(len(sv)))
			buf = append(buf, sv...)
		case TBytes:
			bv, ok := v.([]byte)
			if !ok {
				return nil, fmt.Errorf("relstore: column %d: %v (%T) is not bytes", i, v, v)
			}
			buf = binary.AppendUvarint(buf, uint64(len(bv)))
			buf = append(buf, bv...)
		default:
			return nil, fmt.Errorf("relstore: unknown column type %c", types[i])
		}
	}
	return buf, nil
}

// DecodeRow decodes a row per the column types.
func DecodeRow(types []ColType, buf []byte) (Row, error) {
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
		case TStr, TBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, fmt.Errorf("relstore: column %d: bad length", i)
			}
			data := buf[n : n+int(l)]
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
