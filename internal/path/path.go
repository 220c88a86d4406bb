// Package path implements the path addressing scheme used throughout CPDB.
//
// Following Buneman, Chapman & Cheney (SIGMOD 2006, §2), every database is
// viewed as an unordered edge-labelled tree whose edges can be labelled so
// that a given sequence of labels occurs on at most one path from the root.
// A Path is such a sequence of labels; its string form joins the labels with
// '/', e.g. "T/c1/y" or "SwissProt/Release{20}/Q01780/Citation{3}/Title".
//
// The first component of a path conventionally names the database (the tree
// root), so "T/c1/y" addresses node c1/y inside database T. The empty path
// addresses the forest root and is never stored.
//
// A Path holds nothing but its binary encoding (AppendBinary), the form
// every store key, record frame and Merkle leaf is built from. The encoding
// is canonical and sorts under bytes.Compare as Compare orders paths, so
// encoding a path is a copy, comparing or prefix-testing two is one byte
// comparison, a prefix or parent is a substring, and decoding a path out of
// a record is a validation of the bytes, which the path then keeps. Labels
// are unescaped only when asked for (String, At, Labels, All).
package path

import (
	"errors"
	"fmt"
	"iter"
	"strings"
)

// Separator is the label separator in the textual form of a path.
const Separator = '/'

// Errors returned by path parsing and manipulation.
var (
	errBadLabel   = errors.New("path: label must be non-empty and must not contain '/'")
	errNotPrefix  = errors.New("path: not a prefix")
	errNoParent   = errors.New("path: root path has no parent")
	errBadPattern = errors.New("path: malformed pattern")
)

// A Path is an immutable sequence of edge labels addressing at most one node
// in a forest of databases. The zero value is the (empty) forest root.
//
// Paths are comparable values: == is Equal, and a Path can key a map.
type Path struct {
	enc string // the AppendBinary encoding
}

// Root is the empty path addressing the forest root.
var Root = Path{}

// New builds a path from the given labels. It panics if any label is invalid;
// use TryNew for error returns. New is intended for literals in code and
// tests where the labels are known to be valid.
func New(labels ...string) Path {
	p, err := TryNew(labels...)
	if err != nil {
		panic(err)
	}
	return p
}

// TryNew builds a path from the given labels, validating each one.
func TryNew(labels ...string) (Path, error) {
	n := 0
	for _, l := range labels {
		if !ValidLabel(l) {
			return Root, fmt.Errorf("%w: %q", errBadLabel, l)
		}
		n += encodedLen(l)
	}
	var b strings.Builder
	b.Grow(n)
	for _, l := range labels {
		writeLabel(&b, l)
	}
	return Path{b.String()}, nil
}

// ValidLabel reports whether l can be used as an edge label: it must be
// non-empty and must not contain the separator. Any other byte, 0x00 and
// invalid UTF-8 included, may occur in a label.
func ValidLabel(l string) bool {
	return l != "" && !strings.ContainsRune(l, Separator)
}

// encodedLen is the length of l's encoding: its bytes, one more for each
// escaped byte, and the terminator.
func encodedLen(l string) int {
	n := len(l) + 1
	for i := 0; i < len(l); i++ {
		if l[i] <= 0x01 {
			n++
		}
	}
	return n
}

// writeLabel writes l's encoding: its bytes with 0x00 escaped as 0x01 0x02
// and 0x01 as 0x01 0x03, then the 0x00 terminator.
func writeLabel(b *strings.Builder, l string) {
	for i := 0; i < len(l); i++ {
		if c := l[i]; c <= 0x01 {
			b.WriteString(l[:i])
			b.WriteByte(0x01)
			b.WriteByte(c + 2)
			l, i = l[i+1:], -1
		}
	}
	b.WriteString(l)
	b.WriteByte(0x00)
}

// unescape returns the label whose encoding, terminator excluded, is e: e
// itself when it holds no escape.
func unescape(e string) string {
	if strings.IndexByte(e, 0x01) < 0 {
		return e
	}
	var b strings.Builder
	b.Grow(len(e))
	for i := 0; i < len(e); i++ {
		if c := e[i]; c == 0x01 {
			i++
			b.WriteByte(e[i] - 2)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Parse parses the textual form of a path ("T/c1/y"). An empty string parses
// to the forest root. Leading and trailing separators and empty components
// are rejected: path strings are canonical.
func Parse(s string) (Path, error) {
	if s == "" {
		return Root, nil
	}
	if s[0] == Separator || s[len(s)-1] == Separator || strings.Contains(s, "//") {
		return Root, fmt.Errorf("%w: %q", errBadLabel, "")
	}
	n := encodedLen(s) // the separators become the terminators
	plain := n == len(s)+1
	var b strings.Builder
	b.Grow(n)
	for more := true; more; {
		var l string
		l, s, more = strings.Cut(s, string(Separator))
		if plain {
			b.WriteString(l)
			b.WriteByte(0x00)
		} else {
			writeLabel(&b, l)
		}
	}
	return Path{b.String()}, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the canonical textual form. The forest root renders as "".
func (p Path) String() string {
	if p.enc == "" {
		return ""
	}
	e := p.enc[:len(p.enc)-1]
	if strings.IndexByte(e, 0x01) < 0 {
		return strings.ReplaceAll(e, "\x00", string(Separator))
	}
	var b strings.Builder
	b.Grow(len(e))
	for i := 0; i < len(e); i++ {
		switch c := e[i]; c {
		case 0x00:
			b.WriteByte(Separator)
		case 0x01:
			i++
			b.WriteByte(e[i] - 2)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Len returns the number of labels in the path. The forest root has length 0.
func (p Path) Len() int { return strings.Count(p.enc, "\x00") }

// IsRoot reports whether p is the forest root (length 0).
func (p Path) IsRoot() bool { return p.enc == "" }

// All returns an iterator over the labels of p and their indices, from the
// database label down. A label holding no escaped byte is a substring of
// p, so the walk allocates nothing.
func (p Path) All() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for i, rest := 0, p.enc; rest != ""; i++ {
			e, next, _ := strings.Cut(rest, "\x00")
			if !yield(i, unescape(e)) {
				return
			}
			rest = next
		}
	}
}

// At returns the i-th label (0-based). It panics if i is out of range, like a
// slice index.
func (p Path) At(i int) string {
	for j, l := range p.All() {
		if j == i {
			return l
		}
	}
	panic(fmt.Sprintf("path: label index %d out of range for %q", i, p))
}

// Labels returns a copy of the labels of p.
func (p Path) Labels() []string {
	out := make([]string, 0, p.Len())
	for _, l := range p.All() {
		out = append(out, l)
	}
	return out
}

// parentLen is the length of the encoding of p's parent, 0 for the root.
func (p Path) parentLen() int {
	if p.enc == "" {
		return 0
	}
	return strings.LastIndexByte(p.enc[:len(p.enc)-1], 0x00) + 1
}

// Base returns the final label of p, or "" for the forest root.
func (p Path) Base() string {
	if p.enc == "" {
		return ""
	}
	return unescape(p.enc[p.parentLen() : len(p.enc)-1])
}

// DB returns the first label of p — by convention the database name — or ""
// for the forest root.
func (p Path) DB() string {
	e, _, _ := strings.Cut(p.enc, "\x00")
	return unescape(e)
}

// Parent returns the path with the final label removed. It returns errNoParent
// for the forest root.
func (p Path) Parent() (Path, error) {
	if p.enc == "" {
		return Root, errNoParent
	}
	return Path{p.enc[:p.parentLen()]}, nil
}

// MustParent is Parent for paths known not to be the root; it panics on the
// root path.
func (p Path) MustParent() Path {
	q, err := p.Parent()
	if err != nil {
		panic(err)
	}
	return q
}

// Child returns p extended with one more label. It panics on an invalid
// label; use TryChild for an error return.
func (p Path) Child(label string) Path {
	q, err := p.TryChild(label)
	if err != nil {
		panic(err)
	}
	return q
}

// TryChild returns p extended with one more label, validating it.
func (p Path) TryChild(label string) (Path, error) {
	if !ValidLabel(label) {
		return Root, fmt.Errorf("%w: %q", errBadLabel, label)
	}
	n := encodedLen(label)
	if n == len(label)+1 {
		return Path{p.enc + label + "\x00"}, nil
	}
	var b strings.Builder
	b.Grow(len(p.enc) + n)
	b.WriteString(p.enc)
	writeLabel(&b, label)
	return Path{b.String()}, nil
}

// Join returns p extended by all labels of q.
func (p Path) Join(q Path) Path { return Path{p.enc + q.enc} }

// Equal reports whether p and q address the same node.
func (p Path) Equal(q Path) bool { return p == q }

// Compare orders paths first lexicographically component-wise, then by
// length, so that a path always sorts immediately before its descendants'
// region. It returns -1, 0, or +1. This is the sort order used by the
// provenance store's (Tid, Loc) index, and the order of the encodings under
// bytes.Compare.
func (p Path) Compare(q Path) int { return strings.Compare(p.enc, q.enc) }

// IsPrefixOf reports whether p is a (non-strict) prefix of q; that is, the
// node at q lies in the subtree rooted at p. Written p ≤ q in the paper.
// Every label's encoding ends in the one 0x00 byte it holds, so an encoding
// that starts with p's starts with p's labels.
func (p Path) IsPrefixOf(q Path) bool { return strings.HasPrefix(q.enc, p.enc) }

// IsStrictPrefixOf reports whether p is a proper prefix of q.
func (p Path) IsStrictPrefixOf(q Path) bool {
	return len(p.enc) < len(q.enc) && p.IsPrefixOf(q)
}

// TrimPrefix returns the remainder of p after removing the prefix q, so that
// q.Join(rest) == p. It returns errNotPrefix if q is not a prefix of p.
func (p Path) TrimPrefix(q Path) (Path, error) {
	if !q.IsPrefixOf(p) {
		return Root, fmt.Errorf("%w: %q is not a prefix of %q", errNotPrefix, q, p)
	}
	return Path{p.enc[len(q.enc):]}, nil
}

// Rebase rewrites p from the subtree rooted at from into the subtree rooted
// at to: Rebase(from→to) of from.Join(rest) is to.Join(rest). This is the
// core operation of hierarchical provenance inference (if p was copied from
// q, then p/a came from q/a). It returns errNotPrefix if p is not under from.
func (p Path) Rebase(from, to Path) (Path, error) {
	rest, err := p.TrimPrefix(from)
	if err != nil {
		return Root, err
	}
	return to.Join(rest), nil
}

// Prefix returns the first n labels of p as a path. It panics if n is out of
// range.
func (p Path) Prefix(n int) Path {
	end := 0
	for k := 0; k < n; k++ {
		i := strings.IndexByte(p.enc[end:], 0x00)
		if i < 0 {
			end = -1
			break
		}
		end += i + 1
	}
	if n < 0 || end < 0 {
		panic(fmt.Sprintf("path: prefix length %d out of range for %q", n, p))
	}
	return Path{p.enc[:end]}
}

// AppendBinary appends a self-delimiting binary encoding of p to buf and
// returns the result. For each label the encoding holds the label's bytes,
// with 0x00 escaped as 0x01 0x02 and 0x01 as 0x01 0x03, then a 0x00
// terminator. A label may hold any byte but the separator, 0x00 and 0x01
// included; after escaping, 0x00 occurs only as a terminator and sorts below
// every byte of a label, so bytes.Compare of two encodings orders them as
// Compare orders the paths, and every path has exactly one encoding.
func (p Path) AppendBinary(buf []byte) []byte { return append(buf, p.enc...) }

// BinaryLen returns the number of bytes AppendBinary appends for p.
func (p Path) BinaryLen() int { return len(p.enc) }

// DecodeBinaryString decodes a path encoded by AppendBinary that makes up
// all of s. The bytes may come from outside the program (a wire frame), so
// a label ValidLabel rejects — empty, or holding the separator — is an
// error here as it is in Parse, and so is an escape AppendBinary does not
// write: whatever decodes is canonical and round-trips through String.
//
// Decoding allocates nothing: the path is s. A caller decoding several
// paths out of one record converts the record to a string once and hands
// each decode its substring.
func DecodeBinaryString(s string) (Path, error) {
	// 0x00 occurs only as a terminator, so a path is well formed when it ends
	// in one and no two are adjacent or lead; each check is one scan of s.
	switch {
	case strings.IndexByte(s, Separator) >= 0:
		return Root, fmt.Errorf("%w: separator inside a label of a binary path", errBadLabel)
	case s != "" && s[len(s)-1] != 0x00:
		return Root, fmt.Errorf("path: unterminated label in binary path")
	case s != "" && s[0] == 0x00 || strings.Contains(s, "\x00\x00"):
		return Root, fmt.Errorf("%w: empty label in binary path", errBadLabel)
	}
	for i := strings.IndexByte(s, 0x01); i >= 0 && i < len(s); i++ {
		if s[i] != 0x01 {
			continue
		}
		if i++; s[i] != 0x02 && s[i] != 0x03 {
			return Root, fmt.Errorf("path: bad escape 0x%02x in binary path", s[i])
		}
	}
	return Path{s}, nil
}
