package path

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The reference semantics of a path: a slice of labels, with the algebra
// and the binary codec written over the labels one at a time. FuzzPathAlgebra
// holds every Path operation to it.

func refEncode(labels []string) []byte {
	var buf []byte
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			switch l[i] {
			case 0x00:
				buf = append(buf, 0x01, 0x02)
			case 0x01:
				buf = append(buf, 0x01, 0x03)
			default:
				buf = append(buf, l[i])
			}
		}
		buf = append(buf, 0x00)
	}
	return buf
}

func refCompare(a, b []string) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return sign(len(a) - len(b))
}

func refIsPrefix(a, b []string) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}

// refDecode decodes a binary path label by label, unescaping as it goes.
func refDecode(s []byte) ([]string, error) {
	var labels []string
	var cur []byte
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 0x00:
			if !ValidLabel(string(cur)) {
				return nil, fmt.Errorf("bad label %q", cur)
			}
			labels, cur = append(labels, string(cur)), cur[:0]
		case 0x01:
			if i+1 == len(s) || (s[i+1] != 0x02 && s[i+1] != 0x03) {
				return nil, errors.New("bad escape")
			}
			cur = append(cur, s[i+1]-2)
			i++
		default:
			cur = append(cur, s[i])
		}
	}
	if len(cur) != 0 {
		return nil, errors.New("unterminated label")
	}
	return labels, nil
}

// fuzzLabels splits b into labels at '/', dropping empty ones, so a label
// holds any byte the fuzzer likes but the separator.
func fuzzLabels(b []byte) []string {
	var labels []string
	for _, l := range strings.Split(string(b), string(Separator)) {
		if l != "" {
			labels = append(labels, l)
		}
	}
	return labels
}

// FuzzPathAlgebra: every operation of Path agrees with the reference over
// label slices — the parse and text forms, the binary encoding byte for
// byte, the order (which is also bytes.Compare of the encodings), equality,
// the prefix algebra, the label walk — and DecodeBinaryString accepts
// exactly the encodings the reference decoder accepts, and keeps them.
func FuzzPathAlgebra(f *testing.F) {
	f.Add([]byte("T/c1/y"), []byte("T/c1"), []byte("T\x00c1\x00"))
	f.Add([]byte("a\x00b/c\x01d"), []byte("a\x00b"), []byte("a\x01\x02b\x00"))
	f.Add([]byte("T/\xff/é/値"), []byte("T/\xfe"), []byte("T\x00\x00"))
	f.Add([]byte("S/Release{20}/x"), []byte(""), []byte("a\x01\x7f\x00"))
	f.Add([]byte("T/a"), []byte("T/ab"), []byte("T/a\x00"))
	f.Fuzz(func(t *testing.T, a, b, raw []byte) {
		la, lb := fuzzLabels(a), fuzzLabels(b)
		p, q := New(la...), New(lb...)
		text := strings.Join(la, string(Separator))
		if p.String() != text {
			t.Fatalf("String of %q = %q", la, p)
		}
		if back, err := Parse(text); err != nil || back != p {
			t.Fatalf("Parse(%q) = %q, %v", text, back, err)
		}
		enc := refEncode(la)
		if got := p.AppendBinary(nil); !bytes.Equal(got, enc) || p.BinaryLen() != len(enc) {
			t.Fatalf("AppendBinary of %q = %q, want %q", la, got, enc)
		}
		if c := p.Compare(q); c != refCompare(la, lb) || c != bytes.Compare(enc, refEncode(lb)) {
			t.Fatalf("Compare(%q, %q) = %d, reference %d", la, lb, c, refCompare(la, lb))
		}
		if eq := p.Equal(q); eq != (p == q) || eq != slices.Equal(la, lb) {
			t.Fatalf("Equal(%q, %q) = %v", la, lb, eq)
		}
		if p.IsPrefixOf(q) != refIsPrefix(la, lb) || p.IsStrictPrefixOf(q) != (len(la) < len(lb) && refIsPrefix(la, lb)) {
			t.Fatalf("IsPrefixOf(%q, %q) = %v", la, lb, p.IsPrefixOf(q))
		}
		rest, err := q.TrimPrefix(p)
		if (err == nil) != refIsPrefix(la, lb) || err == nil && !slices.Equal(rest.Labels(), lb[len(la):]) {
			t.Fatalf("TrimPrefix(%q, %q) = %q, %v", lb, la, rest, err)
		}
		j := p.Join(q)
		if !slices.Equal(j.Labels(), append(slices.Clone(la), lb...)) {
			t.Fatalf("Join(%q, %q) = %q", la, lb, j.Labels())
		}
		if rb, err := j.Rebase(p, q); err != nil || !slices.Equal(rb.Labels(), append(slices.Clone(lb), lb...)) {
			t.Fatalf("Rebase of %q from %q to %q = %q, %v", j, p, q, rb, err)
		}
		if p.Len() != len(la) || p.IsRoot() != (len(la) == 0) {
			t.Fatalf("Len of %q = %d", la, p.Len())
		}
		var walked []string
		for i, l := range p.All() {
			if i != len(walked) || p.At(i) != l {
				t.Fatalf("label %d of %q: All says %q at %d, At says %q", len(walked), la, l, i, p.At(i))
			}
			walked = append(walked, l)
		}
		if !slices.Equal(walked, la) {
			t.Fatalf("All of %q walked %q", la, walked)
		}
		for n := 0; n <= len(la); n++ {
			if pre := p.Prefix(n); !slices.Equal(pre.Labels(), la[:n]) {
				t.Fatalf("Prefix(%d) of %q = %q", n, la, pre.Labels())
			}
		}
		if len(la) > 0 {
			parent := p.MustParent()
			if !slices.Equal(parent.Labels(), la[:len(la)-1]) || p.Base() != la[len(la)-1] || p.DB() != la[0] {
				t.Fatalf("Parent/Base/DB of %q: %q, %q, %q", la, parent.Labels(), p.Base(), p.DB())
			}
			if c := parent.Child(p.Base()); c != p {
				t.Fatalf("Child(%q) of the parent of %q = %q", p.Base(), la, c.Labels())
			}
		}
		want, werr := refDecode(raw)
		got, gerr := DecodeBinaryString(string(raw))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("DecodeBinaryString(%q): error %v, reference error %v", raw, gerr, werr)
		}
		if gerr == nil && (!slices.Equal(got.Labels(), want) || !bytes.Equal(got.AppendBinary(nil), raw)) {
			t.Fatalf("DecodeBinaryString(%q) = %q, reference %q", raw, got.Labels(), want)
		}
	})
}

// Sinks keep the compiler from dropping the benchmarked calls.
var (
	sinkInt  int
	sinkPath Path
)

// BenchmarkPath prices the operations a record crosses on its way through
// the store and the wire, over a five-label path.
func BenchmarkPath(b *testing.B) {
	p := MustParse("SwissProt/Release{20}/Q01780/Citation{3}/Title")
	q := MustParse("SwissProt/Release{20}/Q01780/Citation{3}/Year")
	enc := string(p.AppendBinary(nil))
	text := p.String()
	parent := p.MustParent()
	buf := make([]byte, 0, 64)
	b.Run("Compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt += p.Compare(q)
		}
	})
	b.Run("AppendBinary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = p.AppendBinary(buf[:0])
		}
	})
	b.Run("DecodeBinaryString", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if sinkPath, err = DecodeBinaryString(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Child", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkPath = parent.Child("Title")
		}
	})
	b.Run("Parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if sinkPath, err = Parse(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
