package path

import "testing"

func TestParsePattern(t *testing.T) {
	pat, err := ParsePattern("T/a/*/b")
	if err != nil {
		t.Fatal(err)
	}
	if pat.String() != "T/a/*/b" || pat.Len() != 4 || pat.IsExact() {
		t.Errorf("pattern parse wrong: %q len=%d exact=%v", pat, pat.Len(), pat.IsExact())
	}
	if _, err := ParsePattern("T//b"); err == nil {
		t.Error("empty component should error")
	}
	empty, err := ParsePattern("")
	if err != nil || empty.Len() != 0 {
		t.Error("empty pattern should parse to zero length")
	}
}

func TestPatternMatches(t *testing.T) {
	pat := MustParsePattern("T/a/*/b")
	cases := []struct {
		p    string
		want bool
	}{
		{"T/a/x/b", true},
		{"T/a/y/b", true},
		{"T/a/x/c", false},
		{"T/a/x", false},
		{"T/a/x/b/c", false},
		{"S/a/x/b", false},
	}
	for _, c := range cases {
		if got := pat.Matches(MustParse(c.p)); got != c.want {
			t.Errorf("Matches(%q) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPatternMatchesPrefixOf(t *testing.T) {
	pat := MustParsePattern("T/a/*")
	if !pat.MatchesPrefixOf(MustParse("T/a/x/deep/leaf")) {
		t.Error("should prefix-match descendants")
	}
	if !pat.MatchesPrefixOf(MustParse("T/a/x")) {
		t.Error("should prefix-match exact")
	}
	if pat.MatchesPrefixOf(MustParse("T/a")) {
		t.Error("must not match shorter paths")
	}
}

func TestPatternExactAsPath(t *testing.T) {
	pat := MustParsePattern("T/a/b")
	p, ok := pat.AsPath()
	if !ok || p.String() != "T/a/b" {
		t.Errorf("AsPath: %q, %v", p, ok)
	}
	if _, ok := MustParsePattern("T/*").AsPath(); ok {
		t.Error("wildcard pattern must not convert to path")
	}
}

func TestPatternRebase(t *testing.T) {
	src := MustParsePattern("S/a/*/b")
	dst := MustParsePattern("T/q/*/r")
	got, ok := src.Rebase(MustParse("S/a/k7/b/leaf/x"), dst)
	if !ok || got.String() != "T/q/k7/r/leaf/x" {
		t.Errorf("Rebase: got %q, %v", got, ok)
	}
	if _, ok := src.Rebase(MustParse("S/zzz/k/b"), dst); ok {
		t.Error("non-matching path must not rebase")
	}
	if _, ok := src.Rebase(MustParse("S/a/k/b"), MustParsePattern("T/short")); ok {
		t.Error("length mismatch must not rebase")
	}
}
