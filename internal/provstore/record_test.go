package provstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/path"
)

func TestOpKind(t *testing.T) {
	if OpInsert.String() != "I" || OpCopy.String() != "C" || OpDelete.String() != "D" {
		t.Error("OpKind strings wrong")
	}
	if !OpInsert.Valid() || OpKind('X').Valid() {
		t.Error("OpKind validity wrong")
	}
	if OpKind(0x7).String() == "" {
		t.Error("invalid kind should still render")
	}
}

func TestMethodStrings(t *testing.T) {
	cases := []struct {
		m     Method
		short string
		long  string
	}{
		{Naive, "N", "naive"},
		{Hierarchical, "H", "hierarchical"},
		{Transactional, "T", "transactional"},
		{HierTrans, "HT", "hierarchical-transactional"},
	}
	for _, c := range cases {
		if c.m.String() != c.short || c.m.LongName() != c.long {
			t.Errorf("%v strings wrong: %q %q", c.m, c.m.String(), c.m.LongName())
		}
		for _, s := range []string{c.short, c.long} {
			m, err := ParseMethod(s)
			if err != nil || m != c.m {
				t.Errorf("ParseMethod(%q) = %v, %v", s, m, err)
			}
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method should error")
	}
	if Method(99).String() == "" || Method(99).LongName() == "" {
		t.Error("unknown method should still render")
	}
	if !Transactional.Deferred() || !HierTrans.Deferred() || Naive.Deferred() || Hierarchical.Deferred() {
		t.Error("Deferred wrong")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Tid: 121, Op: OpCopy, Loc: path.MustParse("T/c1/y"), Src: path.MustParse("S1/a1/y")}
	if r.String() != "121 C T/c1/y S1/a1/y" {
		t.Errorf("String = %q", r)
	}
	d := Record{Tid: 121, Op: OpDelete, Loc: path.MustParse("T/c5")}
	if d.String() != "121 D T/c5 ⊥" {
		t.Errorf("String = %q", d)
	}
}

func TestRecordValidate(t *testing.T) {
	good := Record{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/a")}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Record{
		{Tid: 1, Op: OpKind('?'), Loc: path.MustParse("T/a")},
		{Tid: 1, Op: OpInsert},                                                       // root loc
		{Tid: 1, Op: OpCopy, Loc: path.MustParse("T/a")},                             // copy without src
		{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/a"), Src: path.MustParse("S")}, // insert with src
		{Tid: 1, Op: OpDelete, Loc: path.MustParse("T/a"), Src: path.MustParse("S")}, // delete with src
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d validated: %v", i, r)
		}
	}
}

func randomRecord(r *rand.Rand) Record {
	locs := []string{"T/a", "T/a/b", "T/c/d/e", "T/x{1}/y"}
	srcs := []string{"S1/p", "S2/q/r", "S1/deep/er/path"}
	rec := Record{Tid: r.Int63n(1 << 40), Loc: path.MustParse(locs[r.Intn(len(locs))])}
	switch r.Intn(3) {
	case 0:
		rec.Op = OpInsert
	case 1:
		rec.Op = OpDelete
	default:
		rec.Op = OpCopy
		rec.Src = path.MustParse(srcs[r.Intn(len(srcs))])
	}
	return rec
}

func TestQuickRecordCodec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := randomRecord(r)
		enc := rec.AppendBinary(nil)
		if len(enc) != rec.EncodedSize() {
			return false
		}
		dec, used, err := DecodeRecord(enc)
		if err != nil || used != len(enc) {
			return false
		}
		return dec.Tid == rec.Tid && dec.Op == rec.Op &&
			dec.Loc.Equal(rec.Loc) && dec.Src.Equal(rec.Src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRecordBinaryLongPaths: AppendBinary reserves one byte for a path's
// length and moves the path up when the varint needs more. The bytes must be
// the ones the two-slice encoder produced — they are the Merkle leaf
// preimage — at every length around the one- and two-byte varint boundaries,
// appended behind existing bytes.
func TestRecordBinaryLongPaths(t *testing.T) {
	reference := func(r Record) []byte {
		buf := binary.AppendUvarint(nil, uint64(r.Tid))
		buf = append(buf, byte(r.Op))
		for _, p := range []path.Path{r.Loc, r.Src} {
			enc := p.AppendBinary(nil)
			buf = append(binary.AppendUvarint(buf, uint64(len(enc))), enc...)
		}
		return buf
	}
	for _, n := range []int{1, 125, 126, 127, 128, 129, 300, 16382, 16383, 16384, 20000} {
		label := strings.Repeat("x", n)
		for _, rec := range []Record{
			{Tid: 7, Op: OpInsert, Loc: path.New("T", label)},
			{Tid: 1 << 40, Op: OpCopy, Loc: path.New(label), Src: path.New("S", label, "y")},
		} {
			want := reference(rec)
			got := rec.AppendBinary([]byte("prefix"))
			if !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("label of %d bytes: AppendBinary differs from the reference encoding", n)
			}
			if rec.EncodedSize() != len(want) {
				t.Fatalf("label of %d bytes: EncodedSize = %d, encoding is %d bytes", n, rec.EncodedSize(), len(want))
			}
			dec, used, err := DecodeRecord(want)
			if err != nil || used != len(want) || !reflect.DeepEqual(dec, rec) {
				t.Fatalf("label of %d bytes: decodes to %v (%d of %d bytes, err %v)", n, dec, used, len(want), err)
			}
		}
	}
	rec := Record{Tid: 3, Op: OpCopy, Loc: path.New("T", "c1", "y"), Src: path.New("S", "a")}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = rec.AppendBinary(buf[:0]) }); n != 0 {
		t.Errorf("AppendBinary into a buffer with room allocates %v times, want 0", n)
	}
}

// TestRecordEncodedSizeEscapes: EncodedSize counts AppendBinary's bytes
// without encoding, so each 0x00 or 0x01 in a label, escaped to two bytes,
// must count twice — also where the escapes carry a path's length across a
// varint boundary — and counting must not allocate.
func TestRecordEncodedSizeEscapes(t *testing.T) {
	for _, label := range []string{
		"\x00", "\x01", "a\x00b\x01c", "\x00\x01\x00\x01",
		strings.Repeat("\x00", 63),   // 126 bytes + terminator: 127
		strings.Repeat("\x01", 64),   // 128 + 1: a two-byte length
		strings.Repeat("\x00", 8191), // 16382 + 1: 16383
		strings.Repeat("\x01", 8192), // 16384 + 1: a three-byte length
	} {
		for _, rec := range []Record{
			{Tid: 127, Op: OpInsert, Loc: path.New(label)},
			{Tid: 128, Op: OpCopy, Loc: path.New("T", label), Src: path.New(label, "y")},
		} {
			enc := rec.AppendBinary(nil)
			if rec.EncodedSize() != len(enc) {
				t.Errorf("label %q: EncodedSize = %d, encoding is %d bytes", label[:min(len(label), 8)], rec.EncodedSize(), len(enc))
			}
			if rec.Loc.BinaryLen() != len(rec.Loc.AppendBinary(nil)) {
				t.Errorf("label %q: BinaryLen disagrees with AppendBinary", label[:min(len(label), 8)])
			}
			if dec, _, err := DecodeRecord(enc); err != nil || !reflect.DeepEqual(dec, rec) {
				t.Errorf("label %q: decodes to %v, err %v", label[:min(len(label), 8)], dec, err)
			}
		}
	}
	rec := Record{Tid: 3, Op: OpCopy, Loc: path.New("T", "c1", "y"), Src: path.New("S", "a")}
	if n := testing.AllocsPerRun(100, func() { _ = rec.EncodedSize() }); n != 0 {
		t.Errorf("EncodedSize allocates %v times, want 0", n)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	rec := Record{Tid: 9, Op: OpCopy, Loc: path.MustParse("T/a"), Src: path.MustParse("S/b")}
	enc := rec.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeRecord(enc[:cut]); err == nil {
			t.Errorf("truncated record at %d decoded", cut)
		}
	}
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Error("empty buffer should error")
	}
}

func TestDupKeyError(t *testing.T) {
	e := &DupKeyError{Tid: 42, Loc: path.MustParse("T/a")}
	if e.Error() != "provstore: duplicate (tid, loc) key: (42, T/a)" {
		t.Errorf("error text = %q", e.Error())
	}
	var err error = e
	var dke *DupKeyError
	if !errors.As(err, &dke) {
		t.Error("errors.As should find DupKeyError")
	}
	if (&DupKeyError{Tid: -5, Loc: path.MustParse("T")}).Error() == "" {
		t.Error("negative tid render")
	}
	if (&DupKeyError{Tid: 0, Loc: path.MustParse("T")}).Error() == "" {
		t.Error("zero tid render")
	}
}
