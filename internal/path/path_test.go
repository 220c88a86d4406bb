package path

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"T",
		"T/c1",
		"T/c1/y",
		"SwissProt/Release{20}/Q01780/Citation{3}/Title",
		"DB/R/tid/F",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"/", "a/", "/a", "a//b", "a/b/"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestValidLabel(t *testing.T) {
	if ValidLabel("") {
		t.Error("empty label should be invalid")
	}
	if ValidLabel("a/b") {
		t.Error("label with separator should be invalid")
	}
	if !ValidLabel("Release{20}") {
		t.Error("Release{20} should be valid")
	}
}

func TestBasicAccessors(t *testing.T) {
	p := MustParse("T/c1/y")
	if p.Len() != 3 || p.IsRoot() {
		t.Fatalf("Len/IsRoot wrong for %q", p)
	}
	if p.DB() != "T" || p.Base() != "y" || p.At(1) != "c1" {
		t.Errorf("accessors wrong: DB=%q Base=%q At(1)=%q", p.DB(), p.Base(), p.At(1))
	}
	if Root.DB() != "" || Root.Base() != "" || !Root.IsRoot() {
		t.Error("root accessors wrong")
	}
}

func TestParentChild(t *testing.T) {
	p := MustParse("T/c1")
	q := p.Child("y")
	if q.String() != "T/c1/y" {
		t.Fatalf("Child: got %q", q)
	}
	r, err := q.Parent()
	if err != nil || !r.Equal(p) {
		t.Fatalf("Parent: got %q, %v", r, err)
	}
	if _, err := Root.Parent(); err == nil {
		t.Error("Parent of root should error")
	}
	if _, err := p.TryChild("a/b"); err == nil {
		t.Error("TryChild with bad label should error")
	}
}

func TestChildDoesNotAliasParent(t *testing.T) {
	p := MustParse("T/a")
	c1 := p.Child("x")
	c2 := p.Child("y")
	if c1.String() != "T/a/x" || c2.String() != "T/a/y" {
		t.Fatalf("siblings alias each other: %q %q", c1, c2)
	}
}

func TestJoinTrim(t *testing.T) {
	p := MustParse("T/c2")
	q := MustParse("x/y")
	j := p.Join(q)
	if j.String() != "T/c2/x/y" {
		t.Fatalf("Join: got %q", j)
	}
	rest, err := j.TrimPrefix(p)
	if err != nil || !rest.Equal(q) {
		t.Fatalf("TrimPrefix: got %q, %v", rest, err)
	}
	if _, err := p.TrimPrefix(MustParse("S1")); err == nil {
		t.Error("TrimPrefix with non-prefix should error")
	}
	if !p.Join(Root).Equal(p) {
		t.Error("Join with root should be identity")
	}
	rest2, err := p.TrimPrefix(p)
	if err != nil || !rest2.IsRoot() {
		t.Errorf("TrimPrefix self: got %q, %v", rest2, err)
	}
}

func TestPrefixRelations(t *testing.T) {
	a := MustParse("T/c2")
	b := MustParse("T/c2/x")
	c := MustParse("T/c21")
	if !a.IsPrefixOf(b) || !a.IsPrefixOf(a) || a.IsStrictPrefixOf(a) {
		t.Error("prefix relation wrong on descendants/self")
	}
	if a.IsPrefixOf(c) {
		t.Error("T/c2 must not be a prefix of T/c21 (label-wise, not string-wise)")
	}
	if b.IsPrefixOf(a) {
		t.Error("descendant is not a prefix of ancestor")
	}
}

func TestRebase(t *testing.T) {
	p := MustParse("T/c2/x/w")
	got, err := p.Rebase(MustParse("T/c2"), MustParse("S1/a2"))
	if err != nil || got.String() != "S1/a2/x/w" {
		t.Fatalf("Rebase: got %q, %v", got, err)
	}
	if _, err := p.Rebase(MustParse("S1"), MustParse("T")); err == nil {
		t.Error("Rebase with non-prefix should error")
	}
	// Rebasing the root of the region itself.
	self, err := MustParse("T/c2").Rebase(MustParse("T/c2"), MustParse("S1/a2"))
	if err != nil || self.String() != "S1/a2" {
		t.Fatalf("Rebase self: got %q, %v", self, err)
	}
}

func TestCompareOrdering(t *testing.T) {
	paths := []string{"T", "T/a", "T/a/b", "T/ab", "T/b", "S1", "S1/a2/x"}
	var ps []Path
	for _, s := range paths {
		ps = append(ps, MustParse(s))
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	got := make([]string, len(ps))
	for i, p := range ps {
		got[i] = p.String()
	}
	want := []string{"S1", "S1/a2/x", "T", "T/a", "T/a/b", "T/ab", "T/b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted order = %v, want %v", got, want)
	}
}

func TestCompareConsistentWithEqual(t *testing.T) {
	a := MustParse("T/a/b")
	b := MustParse("T/a/b")
	if a.Compare(b) != 0 || !a.Equal(b) {
		t.Error("equal paths must compare 0")
	}
}

// randomPath builds a short random path for property tests.
func randomPath(r *rand.Rand) Path {
	n := r.Intn(5)
	labels := make([]string, 0, n)
	alphabet := []string{"a", "b", "c", "ab", "x{1}", "y", "z-9", "Citation{3}"}
	for i := 0; i < n; i++ {
		labels = append(labels, alphabet[r.Intn(len(alphabet))])
	}
	return New(labels...)
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPath(r)
		q, err := Parse(p.String())
		return err == nil && q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPath(r)
		q, err := DecodeBinaryString(string(p.AppendBinary(nil)))
		return err == nil && q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBinaryOrderPreserving(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randomPath(r), randomPath(r)
		pb := p.AppendBinary(nil)
		qb := q.AppendBinary(nil)
		return sign(p.Compare(q)) == sign(bytes.Compare(pb, qb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestBinaryEscaping(t *testing.T) {
	// Labels containing NUL/SOH bytes must round-trip through escaping.
	p := New("a\x00b", "c\x01d", "plain")
	enc := p.AppendBinary(nil)
	q, err := DecodeBinaryString(string(enc))
	if err != nil {
		t.Fatalf("DecodeBinaryString: %v", err)
	}
	if !q.Equal(p) {
		t.Errorf("escaped round trip: got %q want %q", q.Labels(), p.Labels())
	}
}

// TestDecodeBinaryErrors: the decoder reads bytes from outside the program
// (a wire frame), so it rejects every encoding of something Parse would
// reject — whatever it accepts round-trips through String.
func TestDecodeBinaryErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		enc  string
		want error // nil: any error
	}{
		{"empty label", "T\x00\x00", errBadLabel},
		{"empty first label", "\x00T\x00", errBadLabel},
		{"only an empty label", "\x00", errBadLabel},
		{"empty label beside an escape", "a\x01\x02\x00\x00", errBadLabel},
		{"embedded separator", "T\x00a/b\x00", errBadLabel},
		{"embedded separator beside an escape", "a/b\x01\x03\x00", errBadLabel},
		{"truncated escape", "T\x00a\x01", nil},
		{"bad escape", "T\x00a\x01\x7f\x00", nil},
		{"unterminated label", "T\x00a", nil},
		{"unterminated label after an escape", "a\x01\x02b", nil},
		{"trailing garbage", string(MustParse("T/a").AppendBinary(nil)) + "x", nil},
	} {
		p, err := DecodeBinaryString(c.enc)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) || !p.IsRoot() {
			t.Errorf("%s: DecodeBinaryString(%q) = %q, %v; want an error (%v)", c.name, c.enc, p, err, c.want)
		}
	}
}

// TestDecodeBinaryStringSharesStorage: a decode allocates nothing — the
// path is its input — and gives the path that was encoded.
func TestDecodeBinaryStringSharesStorage(t *testing.T) {
	want := MustParse("SwissProt/Release{20}/Q01780/Citation{3}/Title")
	enc := string(want.AppendBinary(nil))
	got, err := DecodeBinaryString(enc)
	if err != nil || !got.Equal(want) {
		t.Fatalf("DecodeBinaryString = %q, %v; want %q", got, err, want)
	}
	if n := testing.AllocsPerRun(100, func() { got, _ = DecodeBinaryString(enc) }); n != 0 {
		t.Errorf("DecodeBinaryString allocates %v times per path, want 0", n)
	}
	if root, err := DecodeBinaryString(""); err != nil || !root.IsRoot() {
		t.Errorf("the empty encoding decodes to %q, %v; want the root", root, err)
	}
}

func TestLabelsCopy(t *testing.T) {
	p := MustParse("T/a/b")
	ls := p.Labels()
	ls[0] = "MUTATED"
	if p.String() != "T/a/b" {
		t.Error("Labels must return a copy")
	}
}

func TestPrefixMethod(t *testing.T) {
	p := MustParse("T/a/b/c")
	if p.Prefix(2).String() != "T/a" || !p.Prefix(0).IsRoot() || !p.Prefix(4).Equal(p) {
		t.Error("Prefix wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Prefix out of range should panic")
		}
	}()
	p.Prefix(5)
}

// TestStringAllocFree: String costs at most its one result string, escaped
// labels or not, and the operations that only look at the encoding or cut
// it — Compare, Equal, IsPrefixOf, Prefix, Parent, AppendBinary into a
// buffer with room, a walk of the labels — cost nothing.
func TestStringAllocFree(t *testing.T) {
	p, q := MustParse("A/b{2}/c"), New("A", "b\x00", "c\x01d")
	for _, x := range []Path{p, q} {
		if n := testing.AllocsPerRun(100, func() { _ = x.String() }); n > 1 {
			t.Errorf("%q: String allocates %v times, want at most 1", x, n)
		}
	}
	if p.String() != "A/b{2}/c" || q.String() != "A/b\x00/c\x01d" {
		t.Errorf("String: %q, %q", p, q)
	}
	buf := make([]byte, 0, 64)
	r := p.MustParent()
	for name, f := range map[string]func(){
		"Compare":      func() { _ = p.Compare(q) },
		"Equal":        func() { _ = p.Equal(r) },
		"IsPrefixOf":   func() { _ = r.IsPrefixOf(p) },
		"Prefix":       func() { _ = p.Prefix(2) },
		"Parent":       func() { _, _ = p.Parent() },
		"AppendBinary": func() { buf = q.AppendBinary(buf[:0]) },
		"All": func() {
			for _, l := range p.All() {
				_ = l
			}
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}
}
