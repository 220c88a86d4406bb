package provstore

import (
	"strings"
	"testing"

	"repro/internal/path"
)

// TestProvlistNearest: the ancestor probes find what a key-per-prefix search
// finds — through labels that are byte-prefixes of one another, labels
// holding the bytes the path encoding escapes, and long labels — without
// allocating a key per ancestor.
func TestProvlistNearest(t *testing.T) {
	l := newProvlist()
	long := strings.Repeat("x", 256)
	for _, s := range []string{"T/a", "T/ab/c", "T/a/b/c/d", "T/\x00/\x01", "T/" + long + "/y"} {
		l.set(&listEntry{loc: path.MustParse(s), op: OpInsert})
	}
	ref := func(loc path.Path, strict bool) *listEntry {
		n := loc.Len()
		if strict {
			n--
		}
		for ; n >= 1; n-- {
			if e := l.entries[loc.Prefix(n)]; e != nil {
				return e
			}
		}
		return nil
	}
	for _, s := range []string{
		"T", "T/a", "T/a/b", "T/a/b/c/d", "T/a/b/c/d/e/f", "T/ab", "T/ab/c/d", "T/abc", "U/a",
		"T/\x00", "T/\x00/\x01", "T/\x00/\x01/\x02", "T/" + long, "T/" + long + "/y/z",
	} {
		loc := path.MustParse(s)
		if got, want := l.nearestAncestorOrSelf(loc), ref(loc, false); got != want {
			t.Errorf("nearestAncestorOrSelf(%q) = %v, want %v", s, got, want)
		}
		if got, want := l.nearestStrictAncestor(loc), ref(loc, true); got != want {
			t.Errorf("nearestStrictAncestor(%q) = %v, want %v", s, got, want)
		}
		if got, want := l.at(loc), l.entries[loc]; got != want {
			t.Errorf("at(%q) = %v, want %v", s, got, want)
		}
	}
	if l.nearestStrictAncestor(path.Root) != nil || l.nearestAncestorOrSelf(path.Root) != nil {
		t.Error("the forest root has an entry")
	}

	deep := path.MustParse("T/a/b/c/d/e") // depth 6: a hit at depth 5, then a miss all the way up
	other := path.MustParse("U/a/b/c/d/e")
	if allocs := testing.AllocsPerRun(100, func() {
		if l.nearestStrictAncestor(deep) == nil || l.nearestAncestorOrSelf(other) != nil || l.at(deep) != nil {
			t.Fatal("probe changed its answer")
		}
	}); allocs > 1 {
		t.Errorf("three probes of a depth-6 location allocate %v times, want at most 1", allocs)
	}
}
