package relstore

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/path"
)

// encodeRun front-codes ascending entries as one run, as a leaf stores them.
func encodeRun(ents []runEntry) []byte {
	var run, prev []byte
	for _, e := range ents {
		run = appendRunEntry(run, prev, e.key, e.val)
		prev = e.key
	}
	return run
}

// decodeRun decodes a whole run into copies of its entries.
func decodeRun(cell []byte) ([]runEntry, error) {
	var r runReader
	var ents []runEntry
	for r.reset(cell); ; {
		more, err := r.next()
		if err != nil || !more {
			return ents, err
		}
		ents = append(ents, runEntry{bytes.Clone(r.key), bytes.Clone(r.val)})
	}
}

// FuzzLeafRun: whatever bytes a leaf cell holds, decoding it as a run never
// panics and never reads outside the cell, what is not a run is errCorrupt,
// and what is one holds at most maxRunEntries strictly ascending keys and
// survives encoding and decoding again. Each key is then split as a primary
// key (tid, path field) and as an index key (path field, tid): that never
// panics, and a split that is accepted encodes back to the key.
func FuzzLeafRun(f *testing.F) {
	long := bytes.Repeat([]byte("shared/prefix/"), 20)
	for _, ents := range [][]runEntry{
		{{[]byte("a"), nil}},
		{{[]byte{}, []byte("the empty key")}, {[]byte{0}, nil}},
		{{[]byte("T/c1"), []byte("v")}, {[]byte("T/c1/x"), nil}, {[]byte("T/c1/y"), bytes.Repeat([]byte("v"), 300)}, {[]byte("T/c2"), nil}},
		{{long, nil}, {append(bytes.Clone(long), 'a'), []byte("1")}, {append(bytes.Clone(long), 'b'), []byte("2")}},
		{{appendKeyBytes(AppendKeyInt(nil, -42), []byte("T\x00a\x00")), []byte("\x01I\x00")}, {appendKeyBytes(AppendKeyInt(nil, 7), []byte("T\x00")), nil}},
		{{AppendKeyPath(AppendKeyInt(nil, 7), nil), nil}, {AppendKeyPath(AppendKeyInt(nil, 7), []byte("T\x00")), []byte("\x01I\x00")}, {AppendKeyPath(AppendKeyInt(nil, 7), []byte("T\x00a\x01\x02\x00")), []byte("\x01C\x02S\x00")}},
		{{AppendKeyInt(AppendKeyPath(nil, []byte("T\x00")), 3), nil}, {AppendKeyInt(AppendKeyPath(nil, []byte("T\x00")), 2006), nil}, {AppendKeyInt(AppendKeyPath(nil, []byte("T\x00a\x00")), 1), nil}},
	} {
		f.Add(encodeRun(ents))
	}
	seventeen := make([]runEntry, maxRunEntries+1)
	for i := range seventeen {
		seventeen[i].key = []byte{'k', byte('a' + i)}
	}
	f.Add(encodeRun(seventeen))               // a run of more than maxRunEntries entries
	f.Add([]byte{0, 1, 'a', 0, 2, 1, 'b', 0}) // shares more than the previous key has
	f.Add([]byte{0, 9, 'a', 0})               // a suffix past the cell
	f.Add([]byte{0, 1, 'a', 7, 'v'})          // a value past the cell
	f.Add([]byte{0, 1, 'b', 0, 0, 1, 'a', 0}) // descending
	f.Add([]byte{0, 1, 'a', 0, 1, 0, 0})      // the same key twice
	f.Add([]byte{1, 1, 'a', 0})               // a first entry that shares a prefix
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The cell sits in the middle of a larger buffer, cut to its length
		// and capacity: a read past it panics instead of seeing what follows.
		buf := append(append(bytes.Repeat([]byte{0xEE}, 8), data...), bytes.Repeat([]byte{0xEE}, 8)...)
		cell := buf[8 : 8+len(data) : 8+len(data)]

		ents, err := decodeRun(cell)
		first, ferr := runFirstKey(cell)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("decoding %x: %v is not ErrCorrupt", data, err)
			}
			if ferr != nil && !errors.Is(ferr, errCorrupt) {
				t.Fatalf("first key of %x: %v is not ErrCorrupt", data, ferr)
			}
			return
		}
		if len(ents) == 0 || len(ents) > maxRunEntries {
			t.Fatalf("a run of %d entries decoded without error", len(ents))
		}
		if ferr != nil || !bytes.Equal(first, ents[0].key) {
			t.Fatalf("runFirstKey = %x, %v; the run starts with %x", first, ferr, ents[0].key)
		}
		for i := 1; i < len(ents); i++ {
			if bytes.Compare(ents[i-1].key, ents[i].key) >= 0 {
				t.Fatalf("keys %x then %x decoded without error", ents[i-1].key, ents[i].key)
			}
		}
		again, err := decodeRun(encodeRun(ents))
		if err != nil || !reflect.DeepEqual(again, ents) {
			t.Fatalf("run %x: encoded and decoded again it is %v, %v; want %v", data, again, err, ents)
		}
		for _, e := range ents {
			for _, types := range [][]ColType{{TInt, TPath}, {TPath, TInt}} {
				if vals, err := decodeKey(types, e.key); err == nil {
					if key, err := encodeKey(types, vals); err != nil || !bytes.Equal(key, e.key) {
						t.Fatalf("key %x splits as %v, which encodes as %x, %v", e.key, vals, key, err)
					}
				}
			}
		}
		if !bytes.Equal(buf[:8], bytes.Repeat([]byte{0xEE}, 8)) || !bytes.Equal(buf[8+len(data):], bytes.Repeat([]byte{0xEE}, 8)) {
			t.Fatal("decoding wrote outside the cell")
		}
	})
}

// FuzzDecodeKey: decodeKey undoes encodeKey, a key cut short anywhere is an
// error, keyValueLen measures what encodeKey writes, and two ints' encodings
// compare as the ints do. Arbitrary bytes either are a key — then exactly
// the one their values encode to: only the minimal form of an int decodes —
// or an error, never a panic. A path field is split off arbitrary bytes
// without a panic, and one that is accepted is valid and encodes back to
// them; the codec refuses to encode a field that is not valid, and one it
// encodes splits back off its key whole, whatever follows it. Two path
// encodings keyed with any tids after them compare as the encodings do, so
// a parent sorts before its child.
func FuzzDecodeKey(f *testing.F) {
	// The inputs TestKeyCodecRoundTrip's generator reaches by chance, by hand,
	// and the ends of the int range.
	for _, seed := range []struct {
		v, w int64
		s    string
	}{
		{0, -1, ""}, {-1, 0, "T/c1/x"}, {1 << 62, 255, "a\x00b"}, {math.MinInt64, -256, "\x01\x00\x01"}, {2006, 2005, "\x00"}, {7, 256, "\x01\x02\x03"},
		{math.MaxInt64, math.MinInt64, "z"}, {1, 2, "T/c1"}, {3, 2, "T/c1/x\x00y"},
	} {
		key, _ := encodeKey(keyTypes, []Value{seed.v, []byte(seed.s), seed.s, pathField(seed.s)})
		f.Add(seed.v, seed.w, seed.s, key)
	}
	f.Add(int64(2), int64(1), "T/c1", []byte("T/c1/y"))                      // a parent, then its child
	f.Add(int64(0), int64(1), "", []byte{0x80, 0, 0, 0x80, 0, 0x80, 0, 'T'}) // a path field that is not one
	f.Add(int64(0), int64(1), "", []byte{0x80, 'a'})                         // unterminated
	f.Add(int64(0), int64(1), "", []byte{0x80, 1, 4, 0, 0})                  // bad escape
	f.Add(int64(0), int64(1), "", []byte{0x82, 0x07})                        // short int
	f.Add(int64(5), int64(1), "", []byte{0x82, 0x00, 0x05, 0, 0})            // 5, not minimal
	f.Add(int64(-2), int64(1), "", []byte{0x7e, 0xff, 0, 0})                 // -1, not minimal
	f.Add(int64(0), int64(1), "", append([]byte{0x89}, make([]byte, 11)...)) // over-long header

	types := keyTypes
	f.Fuzz(func(t *testing.T, v, w int64, s string, raw []byte) {
		if len(s) > 512 {
			s = s[:512] // every cut of the key is tried below
		}
		p := pathField(s)
		want := []Value{v, []byte(s), s, p}
		key, err := encodeKey(types, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeKey(types, key)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeKey(encodeKey(%v)) = %v, %v", want, got, err)
		}
		if n := keyValueLen(TInt, v) + keyValueLen(TBytes, []byte(s)) + keyValueLen(TStr, s) + keyValueLen(TPath, p); n != len(key) {
			t.Fatalf("keyValueLen sums to %d for a key of %d bytes", n, len(key))
		}
		for cut := 0; cut < len(key); cut++ {
			if vals, err := decodeKey(types, key[:cut]); err == nil {
				t.Fatalf("key %x cut to %d bytes decodes as %v", key, cut, vals)
			}
		}
		if vals, err := decodeKey(types, append(bytes.Clone(key), 0)); err == nil {
			t.Fatalf("key %x with a trailing byte decodes as %v", key, vals)
		}
		kv, kw := AppendKeyInt(nil, v), AppendKeyInt(nil, w)
		if c := bytes.Compare(kv, kw); c != cmp.Compare(v, w) {
			t.Fatalf("%d encodes as %x and %d as %x, which compare %d", v, kv, w, kw, c)
		}

		if x, rest, err := DecodeKeyInt(raw); err == nil {
			if again := AppendKeyInt(nil, x); !bytes.Equal(again, raw[:len(raw)-len(rest)]) {
				t.Fatalf("%x decodes as %d, which encodes as %x", raw[:len(raw)-len(rest)], x, again)
			}
		}
		if enc, rest, err := DecodeKeyPath(raw); err == nil {
			if field := raw[:len(raw)-len(rest)]; !validPathField(enc) || !bytes.Equal(AppendKeyPath(nil, enc), field) {
				t.Fatalf("%x splits off the path field %x, which is not valid or keys as %x", raw, enc, AppendKeyPath(nil, enc))
			}
		}
		if key, err := encodeKey([]ColType{TPath, TInt}, []Value{raw, w}); (err == nil) != validPathField(raw) {
			t.Fatalf("encodeKey of the path field %x: %v, but validPathField says %v", raw, err, validPathField(raw))
		} else if enc, rest, err := DecodeKeyPath(key); err == nil && !bytes.Equal(enc, raw) || err != nil && validPathField(raw) {
			t.Fatalf("the path field %x, keyed with tid %d as %x, splits back off it as %x, %v", raw, w, key, enc, err)
		} else if err == nil && !bytes.Equal(rest, AppendKeyInt(nil, w)) {
			t.Fatalf("the path field %x, keyed with tid %d as %x, leaves %x after it", raw, w, key, rest)
		}
		if _, err := path.DecodeBinaryString(string(raw)); err == nil && !validPathField(raw) {
			t.Fatalf("%x is a path's encoding but no valid path field", raw)
		}
		q := pathField(string(raw))
		ka, kb := AppendKeyInt(AppendKeyPath(nil, p), v), AppendKeyInt(AppendKeyPath(nil, q), w)
		if c := bytes.Compare(p, q); c != 0 && bytes.Compare(ka, kb) != c {
			t.Fatalf("path fields %x and %x compare %d, but keyed with tids %d and %d %d", p, q, c, v, w, bytes.Compare(ka, kb))
		}
		if pp, qp := mustPath(t, p), mustPath(t, q); pp.IsPrefixOf(qp) && !qp.Equal(pp) && bytes.Compare(ka, kb) >= 0 {
			t.Fatalf("%v, keyed with tid %d, does not sort before its descendant %v with tid %d", pp, v, qp, w)
		}

		vals, err := decodeKey(types, raw)
		if err != nil {
			return
		}
		again, err := encodeKey(types, vals)
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("%x decodes as %v, which encodes as %x, %v", raw, vals, again, err)
		}
	})
}

// keyTypes is FuzzDecodeKey's key: a field of every column type.
var keyTypes = []ColType{TInt, TBytes, TStr, TPath}

// pathField returns the binary encoding of the path whose text is s with its
// empty labels dropped: a valid path field for any s.
func pathField(s string) []byte {
	var labels []string
	for _, l := range strings.Split(s, string(path.Separator)) {
		if l != "" {
			labels = append(labels, l)
		}
	}
	return path.New(labels...).AppendBinary([]byte{})
}

// mustPath decodes a path field pathField made.
func mustPath(t *testing.T, enc []byte) path.Path {
	t.Helper()
	p, err := path.DecodeBinaryString(string(enc))
	if err != nil {
		t.Fatalf("pathField made %x: %v", enc, err)
	}
	return p
}
