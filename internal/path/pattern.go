package path

import (
	"fmt"
	"strings"
)

// Wildcard is the pattern component that matches exactly one label,
// corresponding to the XPath-style '*' used by the paper's approximate
// provenance records, e.g. Prov(t, C, T/a/*/b, S/a/*/b).
const Wildcard = "*"

// A Pattern is a path in which some components may be the single-label
// wildcard '*'. Patterns over-approximate sets of paths: a pattern matches a
// path when they have the same length and every non-wildcard component is
// equal. Patterns are used by the approximate provenance extension (§6 of
// the paper) to describe the effect of bulk updates compactly.
type Pattern struct {
	elems []string // each either a valid label or Wildcard
}

// ParsePattern parses the textual form of a pattern ("T/a/*/b"). The empty
// string parses to the empty pattern, which matches only the forest root.
func ParsePattern(s string) (Pattern, error) {
	if s == "" {
		return Pattern{}, nil
	}
	parts := strings.Split(s, string(Separator))
	elems := make([]string, len(parts))
	for i, part := range parts {
		if part != Wildcard && !ValidLabel(part) {
			return Pattern{}, fmt.Errorf("%w: component %q", errBadPattern, part)
		}
		elems[i] = part
	}
	return Pattern{elems: elems}, nil
}

// MustParsePattern is ParsePattern for known-good literals; it panics on
// error.
func MustParsePattern(s string) Pattern {
	pat, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return pat
}

// String returns the canonical textual form of the pattern.
func (pat Pattern) String() string {
	return strings.Join(pat.elems, string(Separator))
}

// Len returns the number of components.
func (pat Pattern) Len() int { return len(pat.elems) }

// IsExact reports whether the pattern contains no wildcards, in which case it
// matches exactly one path (see AsPath).
func (pat Pattern) IsExact() bool {
	for _, e := range pat.elems {
		if e == Wildcard {
			return false
		}
	}
	return true
}

// AsPath converts an exact pattern to the unique path it matches. It returns
// false if the pattern contains a wildcard.
func (pat Pattern) AsPath() (Path, bool) {
	if !pat.IsExact() {
		return Root, false
	}
	return New(pat.elems...), true
}

// Matches reports whether the pattern matches the path exactly (same length,
// each non-wildcard component equal).
func (pat Pattern) Matches(p Path) bool {
	return len(pat.elems) == p.Len() && pat.MatchesPrefixOf(p)
}

// MatchesPrefixOf reports whether the pattern matches some prefix of p; that
// is, whether p lies in the subtree of a node matched by the pattern. This is
// the test used when deciding whether an approximate provenance record *may*
// cover a given location.
func (pat Pattern) MatchesPrefixOf(p Path) bool {
	n := 0
	for i, l := range p.All() {
		if i == len(pat.elems) {
			break
		}
		if e := pat.elems[i]; e != Wildcard && e != l {
			return false
		}
		n++
	}
	return n == len(pat.elems)
}

// Rebase rewrites a path p matched-by-prefix by this (source-side) pattern
// into the corresponding path pattern on the destination side: component i of
// the result is dst.elems[i] when it is concrete, otherwise the concrete
// label from p. Components beyond the pattern length are copied from p
// verbatim. It returns false when pat does not prefix-match p or the two
// patterns have different lengths.
//
// Rebase is the approximate analogue of Path.Rebase, used to push a location
// through an approximate copy record.
func (pat Pattern) Rebase(p Path, dst Pattern) (Pattern, bool) {
	if len(pat.elems) != len(dst.elems) || !pat.MatchesPrefixOf(p) {
		return Pattern{}, false
	}
	out := p.Labels()
	for i, e := range dst.elems {
		if e != Wildcard {
			out[i] = e
		}
	}
	return Pattern{elems: out}, true
}
