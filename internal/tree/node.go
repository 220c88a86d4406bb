// Package tree implements the unordered edge-labelled tree data model of
// Buneman, Chapman & Cheney (SIGMOD 2006, §2).
//
// A tree t is written {a1:v1, ..., an:vn} where each vi is either a subtree
// or a data value; data values occur only at leaves, and sibling edge labels
// are distinct, so a path of labels identifies at most one node. This model
// deliberately abstracts over the native format of the wrapped databases
// (relational, XML, flat files): anything that can expose uniquely-labelled
// paths fits.
package tree

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/path"
)

// Errors returned by tree operations. These correspond to the failure cases
// of the paper's update semantics: t ⊎ {a:v} fails on a shared top-level
// label, t − a fails when no such edge exists, and t[p := t'] fails when the
// path p is absent.
var (
	ErrNoSuchPath   = errors.New("tree: no such path")
	ErrDupEdge      = errors.New("tree: duplicate edge label")
	ErrNoSuchEdge   = errors.New("tree: no such edge")
	errLeafChild    = errors.New("tree: leaf nodes cannot have children")
	errValueOnInner = errors.New("tree: interior nodes cannot carry a value")
)

// A Node is a node of an unordered edge-labelled tree. A Node is either a
// leaf carrying a data value, or an interior node with zero or more
// uniquely-labelled children. The empty tree {} is an interior node with no
// children; it is distinct from a leaf with the empty-string value.
//
// The zero value of Node is the empty tree.
type Node struct {
	leaf     bool
	value    string
	children map[string]*Node
}

// NewTree returns a new empty interior node, the tree {}.
func NewTree() *Node { return &Node{} }

// NewLeaf returns a new leaf node carrying the data value v.
func NewLeaf(v string) *Node { return &Node{leaf: true, value: v} }

// IsLeaf reports whether n is a leaf (carries a data value).
func (n *Node) IsLeaf() bool { return n.leaf }

// Value returns the data value of a leaf, or "" for interior nodes.
func (n *Node) Value() string {
	if n.leaf {
		return n.value
	}
	return ""
}

// SetValue turns an empty interior node or leaf into a leaf with value v.
// It returns errValueOnInner if n has children.
func (n *Node) SetValue(v string) error {
	if len(n.children) > 0 {
		return errValueOnInner
	}
	n.leaf = true
	n.value = v
	return nil
}

// NumChildren returns the number of children of n.
func (n *Node) NumChildren() int { return len(n.children) }

// Child returns the child of n along the edge labelled label, or nil.
func (n *Node) Child(label string) *Node {
	return n.children[label]
}

// HasChild reports whether n has an outgoing edge with the given label.
func (n *Node) HasChild(label string) bool {
	_, ok := n.children[label]
	return ok
}

// Labels returns the outgoing edge labels of n in sorted order. Trees are
// unordered; the sorted order is used only to make iteration deterministic.
func (n *Node) Labels() []string {
	if len(n.children) == 0 {
		return nil
	}
	ls := make([]string, 0, len(n.children))
	for l := range n.children {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// AddChild inserts the edge {label: child}, implementing t ⊎ {a:v}. It
// returns ErrDupEdge if the label is already present and errLeafChild if n
// is a leaf.
func (n *Node) AddChild(label string, child *Node) error {
	if n.leaf {
		return fmt.Errorf("%w (adding %q)", errLeafChild, label)
	}
	if !path.ValidLabel(label) {
		return fmt.Errorf("tree: invalid edge label %q", label)
	}
	if _, ok := n.children[label]; ok {
		return fmt.Errorf("%w: %q", ErrDupEdge, label)
	}
	if n.children == nil {
		n.children = make(map[string]*Node)
	}
	n.children[label] = child
	return nil
}

// SetChild inserts or replaces the edge {label: child}. It is used by the
// copy operation t[p := t'], which overwrites. It returns errLeafChild if n
// is a leaf.
func (n *Node) SetChild(label string, child *Node) error {
	if n.leaf {
		return fmt.Errorf("%w (setting %q)", errLeafChild, label)
	}
	if !path.ValidLabel(label) {
		return fmt.Errorf("tree: invalid edge label %q", label)
	}
	if n.children == nil {
		n.children = make(map[string]*Node)
	}
	n.children[label] = child
	return nil
}

// RemoveChild deletes the edge labelled label and its subtree, implementing
// t − a. It returns ErrNoSuchEdge if no such edge exists.
func (n *Node) RemoveChild(label string) error {
	if _, ok := n.children[label]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchEdge, label)
	}
	delete(n.children, label)
	return nil
}

// A noSuchPathError is the ErrNoSuchPath of a failed Get: Path was asked
// for, and MissingAt is its shortest prefix that does not exist. The message
// is rendered only when somebody reads it — a miss is the normal answer to
// "does the target exist yet?", asked before every insert and copy.
type noSuchPathError struct {
	Path, MissingAt path.Path
}

func (e *noSuchPathError) Error() string {
	return fmt.Sprintf("%v: %q (missing at %q)", ErrNoSuchPath, e.Path, e.MissingAt)
}

// Unwrap makes errors.Is(err, ErrNoSuchPath) hold.
func (e *noSuchPathError) Unwrap() error { return ErrNoSuchPath }

// descend follows the labels p[from:] down from n and returns the node reached,
// or nil and the index of the first label with no edge.
func (n *Node) descend(p path.Path, from int) (*Node, int) {
	for i, l := range p.All() {
		if i < from {
			continue
		}
		if n = n.Child(l); n == nil {
			return nil, i
		}
	}
	return n, 0
}

// Get returns the node at the relative path p under n (t.p in the paper),
// or a *noSuchPathError (which is an ErrNoSuchPath).
func (n *Node) Get(p path.Path) (*Node, error) {
	cur, i := n.descend(p, 0)
	if cur == nil {
		return nil, &noSuchPathError{Path: p, MissingAt: p.Prefix(i + 1)}
	}
	return cur, nil
}

// Has reports whether the relative path p exists under n.
func (n *Node) Has(p path.Path) bool {
	cur, _ := n.descend(p, 0)
	return cur != nil
}

// Clone returns a deep copy of the subtree rooted at n. Copy-paste semantics
// always clone, so that later edits to the target never alias the source.
func (n *Node) Clone() *Node {
	c := &Node{leaf: n.leaf, value: n.value}
	if len(n.children) > 0 {
		c.children = make(map[string]*Node, len(n.children))
		for l, ch := range n.children {
			c.children[l] = ch.Clone()
		}
	}
	return c
}

// Size returns the number of nodes in the subtree rooted at n, including n
// itself. The paper's "subtree of size four" is a parent with three children.
func (n *Node) Size() int {
	sz := 1
	for _, ch := range n.children {
		sz += ch.Size()
	}
	return sz
}

// Equal reports deep structural equality: same leaf-ness, same value, same
// labelled children with equal subtrees.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.leaf != m.leaf || n.value != m.value || len(n.children) != len(m.children) {
		return false
	}
	for l, ch := range n.children {
		mch, ok := m.children[l]
		if !ok || !ch.Equal(mch) {
			return false
		}
	}
	return true
}

// Walk visits every node in the subtree rooted at n in deterministic
// (sorted-sibling, pre-order) order, calling fn with the path of the node
// relative to n. Returning a non-nil error from fn aborts the walk and
// propagates the error.
func (n *Node) Walk(fn func(rel path.Path, node *Node) error) error {
	return n.walk(path.Root, fn)
}

func (n *Node) walk(rel path.Path, fn func(path.Path, *Node) error) error {
	if err := fn(rel, n); err != nil {
		return err
	}
	for _, l := range n.Labels() {
		if err := n.children[l].walk(rel.Child(l), fn); err != nil {
			return err
		}
	}
	return nil
}

// String renders the tree in the paper's brace notation, with children in
// sorted label order: {a: {x: 1, y: 2}, b: 3}. Leaves render as their value.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	if n.leaf {
		b.WriteString(n.value)
		return
	}
	b.WriteByte('{')
	for i, l := range n.Labels() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l)
		b.WriteString(": ")
		n.children[l].render(b)
	}
	b.WriteByte('}')
}
