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
package path

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Separator is the label separator in the textual form of a path.
const Separator = '/'

// Errors returned by path parsing and manipulation.
var (
	ErrEmpty      = errors.New("path: empty path")
	ErrBadLabel   = errors.New("path: label must be non-empty and must not contain '/'")
	ErrNotPrefix  = errors.New("path: not a prefix")
	ErrNoParent   = errors.New("path: root path has no parent")
	ErrBadPattern = errors.New("path: malformed pattern")
)

// A Path is an immutable sequence of edge labels addressing at most one node
// in a forest of databases. The zero value is the (empty) forest root.
//
// Paths are values; all methods return new Paths and never alias the
// receiver's backing storage in a way that permits mutation through shared
// slices (Child copies).
type Path struct {
	elems []string
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
	if len(labels) == 0 {
		return Root, nil
	}
	elems := make([]string, len(labels))
	for i, l := range labels {
		if !ValidLabel(l) {
			return Root, fmt.Errorf("%w: %q", ErrBadLabel, l)
		}
		elems[i] = l
	}
	return Path{elems: elems}, nil
}

// ValidLabel reports whether l can be used as an edge label: it must be
// non-empty and must not contain the separator.
func ValidLabel(l string) bool {
	return l != "" && !strings.ContainsRune(l, Separator)
}

// Parse parses the textual form of a path ("T/c1/y"). An empty string parses
// to the forest root. Leading and trailing separators and empty components
// are rejected: path strings are canonical.
func Parse(s string) (Path, error) {
	if s == "" {
		return Root, nil
	}
	parts := strings.Split(s, string(Separator))
	return TryNew(parts...)
}

// ParseWith is Parse with each parsed label passed through intern, which
// should return a canonical shared copy of its argument (or the argument
// itself). Decode hot paths use it to make repeated edge labels across
// millions of records share one backing string instead of allocating one
// per occurrence. Unlike TryNew, ParseWith keeps the split slice it
// already owns, so a parse costs one slice allocation plus whatever
// intern declines to share.
func ParseWith(s string, intern func(string) string) (Path, error) {
	if s == "" {
		return Root, nil
	}
	parts := strings.Split(s, string(Separator))
	for i, l := range parts {
		if !ValidLabel(l) {
			return Root, fmt.Errorf("%w: %q", ErrBadLabel, l)
		}
		parts[i] = intern(l)
	}
	return Path{elems: parts}, nil
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
	return strings.Join(p.elems, string(Separator))
}

// Len returns the number of labels in the path. The forest root has length 0.
func (p Path) Len() int { return len(p.elems) }

// IsRoot reports whether p is the forest root (length 0).
func (p Path) IsRoot() bool { return len(p.elems) == 0 }

// At returns the i-th label (0-based). It panics if i is out of range, like a
// slice index.
func (p Path) At(i int) string { return p.elems[i] }

// Labels returns a copy of the labels of p.
func (p Path) Labels() []string {
	out := make([]string, len(p.elems))
	copy(out, p.elems)
	return out
}

// Base returns the final label of p, or "" for the forest root.
func (p Path) Base() string {
	if len(p.elems) == 0 {
		return ""
	}
	return p.elems[len(p.elems)-1]
}

// DB returns the first label of p — by convention the database name — or ""
// for the forest root.
func (p Path) DB() string {
	if len(p.elems) == 0 {
		return ""
	}
	return p.elems[0]
}

// Parent returns the path with the final label removed. It returns ErrNoParent
// for the forest root.
func (p Path) Parent() (Path, error) {
	if len(p.elems) == 0 {
		return Root, ErrNoParent
	}
	return Path{elems: p.elems[:len(p.elems)-1]}, nil
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
		return Root, fmt.Errorf("%w: %q", ErrBadLabel, label)
	}
	elems := make([]string, len(p.elems)+1)
	copy(elems, p.elems)
	elems[len(p.elems)] = label
	return Path{elems: elems}, nil
}

// Join returns p extended by all labels of q.
func (p Path) Join(q Path) Path {
	if q.IsRoot() {
		return p
	}
	elems := make([]string, len(p.elems)+len(q.elems))
	copy(elems, p.elems)
	copy(elems[len(p.elems):], q.elems)
	return Path{elems: elems}
}

// Equal reports whether p and q address the same node.
func (p Path) Equal(q Path) bool {
	if len(p.elems) != len(q.elems) {
		return false
	}
	for i := range p.elems {
		if p.elems[i] != q.elems[i] {
			return false
		}
	}
	return true
}

// Compare orders paths first lexicographically component-wise, then by
// length, so that a path always sorts immediately before its descendants'
// region. It returns -1, 0, or +1. This is the sort order used by the
// provenance store's (Tid, Loc) index.
func (p Path) Compare(q Path) int {
	n := min(len(p.elems), len(q.elems))
	for i := 0; i < n; i++ {
		if c := strings.Compare(p.elems[i], q.elems[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(p.elems) < len(q.elems):
		return -1
	case len(p.elems) > len(q.elems):
		return 1
	default:
		return 0
	}
}

// IsPrefixOf reports whether p is a (non-strict) prefix of q; that is, the
// node at q lies in the subtree rooted at p. Written p ≤ q in the paper.
func (p Path) IsPrefixOf(q Path) bool {
	if len(p.elems) > len(q.elems) {
		return false
	}
	for i := range p.elems {
		if p.elems[i] != q.elems[i] {
			return false
		}
	}
	return true
}

// IsStrictPrefixOf reports whether p is a proper prefix of q.
func (p Path) IsStrictPrefixOf(q Path) bool {
	return len(p.elems) < len(q.elems) && p.IsPrefixOf(q)
}

// TrimPrefix returns the remainder of p after removing the prefix q, so that
// q.Join(rest) == p. It returns ErrNotPrefix if q is not a prefix of p.
func (p Path) TrimPrefix(q Path) (Path, error) {
	if !q.IsPrefixOf(p) {
		return Root, fmt.Errorf("%w: %q is not a prefix of %q", ErrNotPrefix, q, p)
	}
	rest := p.elems[len(q.elems):]
	if len(rest) == 0 {
		return Root, nil
	}
	elems := make([]string, len(rest))
	copy(elems, rest)
	return Path{elems: elems}, nil
}

// Rebase rewrites p from the subtree rooted at from into the subtree rooted
// at to: Rebase(from→to) of from.Join(rest) is to.Join(rest). This is the
// core operation of hierarchical provenance inference (if p was copied from
// q, then p/a came from q/a). It returns ErrNotPrefix if p is not under from.
func (p Path) Rebase(from, to Path) (Path, error) {
	rest, err := p.TrimPrefix(from)
	if err != nil {
		return Root, err
	}
	return to.Join(rest), nil
}

// Ancestors returns all strict ancestors of p from the root database
// downwards, excluding p itself and excluding the forest root. For "T/a/b"
// it returns ["T", "T/a"].
func (p Path) Ancestors() []Path {
	if len(p.elems) <= 1 {
		return nil
	}
	out := make([]Path, 0, len(p.elems)-1)
	for i := 1; i < len(p.elems); i++ {
		out = append(out, Path{elems: p.elems[:i]})
	}
	return out
}

// Prefix returns the first n labels of p as a path. It panics if n is out of
// range.
func (p Path) Prefix(n int) Path {
	if n < 0 || n > len(p.elems) {
		panic(fmt.Sprintf("path: prefix length %d out of range for %q", n, p))
	}
	return Path{elems: p.elems[:n]}
}

// AppendBinary appends a self-delimiting binary encoding of p to buf and
// returns the result. The encoding preserves Compare order under bytes.Compare
// for paths (each label is terminated by 0x00, which is less than any label
// byte we admit; labels containing NUL are rejected by construction since
// they come from parsed text, but we escape defensively).
//
// Encoding: for each label, the label bytes with 0x00 escaped as 0x01 0x02
// and 0x01 escaped as 0x01 0x03, then a 0x00 terminator.
func (p Path) AppendBinary(buf []byte) []byte {
	for _, l := range p.elems {
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

// BinaryLen returns the number of bytes AppendBinary appends for p,
// escapes included, without encoding it.
func (p Path) BinaryLen() int {
	n := 0
	for _, l := range p.elems {
		n += len(l) + 1
		for i := 0; i < len(l); i++ {
			if l[i] <= 0x01 {
				n++
			}
		}
	}
	return n
}

// MarshalBinary implements encoding.BinaryMarshaler using AppendBinary.
func (p Path) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(nil), nil
}

// DecodeBinary decodes a path encoded by AppendBinary from the front of buf,
// returning the path and the number of bytes consumed. A path encoding ends
// at the end of buf. It is DecodeBinaryString over a copy of buf.
func DecodeBinary(buf []byte) (Path, int, error) {
	p, err := DecodeBinaryString(string(buf))
	if err != nil {
		return Root, 0, err
	}
	return p, len(buf), nil
}

// DecodeBinaryString decodes a path encoded by AppendBinary that makes up
// all of s. The bytes may come from outside the program (a wire frame), so
// a label ValidLabel rejects — empty, or holding the separator — is an
// error here as it is in Parse: whatever decodes also round-trips through
// String.
//
// The common encoding has no escapes and decodes in one pass with one
// allocation, the slice of labels: the labels are substrings of s, so the
// path keeps s alive. A caller decoding several paths out of one record
// converts the record to a string once and pays no further copy.
func DecodeBinaryString(s string) (Path, error) {
	p, _, err := DecodeBinaryStringIn(nil, s)
	return p, err
}

// DecodeBinaryStringIn is DecodeBinaryString with the labels stored in slab
// instead of a slice of their own. An encoding holds one 0x00 byte per
// label, so a caller decoding many paths counts those bytes, makes one slab
// of that length and hands each decode the rest the previous one returned.
// The path is the first n elements of slab, capped at n (n its labels), so
// nothing done with it writes over the next path's labels; it keeps the
// whole slab alive. A slab shorter than n is left alone and the labels get a
// slice of their own.
func DecodeBinaryStringIn(slab []string, s string) (Path, []string, error) {
	n, escaped, err := binaryLabels(s)
	if err != nil || n == 0 && !escaped {
		return Root, slab, err
	}
	if escaped {
		n = strings.Count(s, "\x00")
	}
	var elems []string
	if len(slab) >= n {
		elems, slab = slab[:0:n], slab[n:]
	} else {
		elems = make([]string, 0, n)
	}
	if escaped {
		p, err := decodeBinaryEscaped(s, elems)
		return p, slab, err
	}
	for start := 0; start < len(s); {
		end := start + strings.IndexByte(s[start:], 0x00)
		elems = append(elems, s[start:end])
		start = end + 1
	}
	return Path{elems: elems}, slab, nil
}

// DecodeBinaryWith is DecodeBinaryString for an encoding held in bytes, its
// labels looked up through shared, which returns a canonical shared copy of
// a label, or false if it has none. The labels it has none of are substrings
// of one string copy of b, made at the first of them; so a decode costs one
// allocation, the slice of labels, when every label is shared, and two
// otherwise. An encoding with an escape is decoded by DecodeBinaryString
// over a copy of b.
func DecodeBinaryWith(b []byte, shared func([]byte) (string, bool)) (Path, error) {
	n, escaped, err := binaryLabels(b)
	if escaped {
		return DecodeBinaryString(string(b))
	}
	if err != nil || n == 0 {
		return Root, err
	}
	elems := make([]string, n)
	var s string // the copy of b
	start := 0
	for i := range elems {
		end := start + bytes.IndexByte(b[start:], 0x00)
		l, ok := shared(b[start:end])
		if !ok {
			if s == "" {
				s = string(b)
			}
			l = s[start:end]
		}
		elems[i], start = l, end+1
	}
	return Path{elems: elems}, nil
}

// binaryLabels checks the binary encoding s up to its first escape, if it has
// one (escaped; the rest is decodeBinaryEscaped's), and otherwise counts its
// labels.
func binaryLabels[S ~string | ~[]byte](s S) (n int, escaped bool, err error) {
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 0x00:
			if i == start {
				return 0, false, fmt.Errorf("%w: empty label in binary path", ErrBadLabel)
			}
			n++
			start = i + 1
		case 0x01:
			return 0, true, nil
		case Separator:
			return 0, false, fmt.Errorf("%w: separator inside a label of a binary path", ErrBadLabel)
		}
	}
	if start != len(s) {
		return 0, false, fmt.Errorf("path: unterminated label in binary path")
	}
	return n, false, nil
}

// decodeBinaryEscaped is DecodeBinaryString for an encoding that holds an
// escape: the labels are unescaped one by one and appended to elems.
func decodeBinaryEscaped(s string, elems []string) (Path, error) {
	var cur []byte
	for i := 0; i < len(s); {
		switch s[i] {
		case 0x00:
			if !ValidLabel(string(cur)) {
				return Root, fmt.Errorf("%w: %q in binary path", ErrBadLabel, cur)
			}
			elems = append(elems, string(cur))
			cur = cur[:0]
			i++
		case 0x01:
			if i+1 >= len(s) {
				return Root, fmt.Errorf("path: truncated escape in binary path")
			}
			switch s[i+1] {
			case 0x02:
				cur = append(cur, 0x00)
			case 0x03:
				cur = append(cur, 0x01)
			default:
				return Root, fmt.Errorf("path: bad escape 0x%02x in binary path", s[i+1])
			}
			i += 2
		default:
			cur = append(cur, s[i])
			i++
		}
	}
	if len(cur) != 0 {
		return Root, fmt.Errorf("path: unterminated label in binary path")
	}
	return Path{elems: elems}, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *Path) UnmarshalBinary(data []byte) error {
	q, n, err := DecodeBinary(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("path: %d trailing bytes after binary path", len(data)-n)
	}
	*p = q
	return nil
}
