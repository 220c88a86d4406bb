package tree

import (
	"fmt"

	"repro/internal/path"
)

// A Forest is a collection of named databases, each viewed as a tree. The
// first component of an absolute path names the database: "T/c1/y" is node
// c1/y of database T. CPDB's update semantics operate on a forest containing
// the target database and the (read-only) source databases.
type Forest struct {
	dbs map[string]*Node
}

// NewForest returns an empty forest.
func NewForest() *Forest {
	return &Forest{dbs: make(map[string]*Node)}
}

// AddDB registers a database tree under the given name. It returns ErrDupEdge
// if the name is taken.
func (f *Forest) AddDB(name string, root *Node) error {
	if !path.ValidLabel(name) {
		return fmt.Errorf("tree: invalid database name %q", name)
	}
	if _, ok := f.dbs[name]; ok {
		return fmt.Errorf("%w: database %q", ErrDupEdge, name)
	}
	f.dbs[name] = root
	return nil
}

// DB returns the root of the named database, or nil.
func (f *Forest) DB(name string) *Node { return f.dbs[name] }

// Get resolves an absolute path (first component = database name) to a node.
func (f *Forest) Get(p path.Path) (*Node, error) {
	if p.IsRoot() {
		return nil, fmt.Errorf("%w: forest root is not addressable", ErrNoSuchPath)
	}
	root, ok := f.dbs[p.DB()]
	if !ok {
		return nil, fmt.Errorf("%w: unknown database %q", ErrNoSuchPath, p.DB())
	}
	n, i := root.descend(p, 1)
	if n == nil {
		// The error speaks in database-relative paths, as root.Get would.
		rel, _ := p.TrimPrefix(p.Prefix(1))
		return nil, &noSuchPathError{Path: rel, MissingAt: rel.Prefix(i)}
	}
	return n, nil
}

// Has reports whether the absolute path exists in the forest.
func (f *Forest) Has(p path.Path) bool {
	if p.IsRoot() {
		return false
	}
	root, ok := f.dbs[p.DB()]
	if !ok {
		return false
	}
	n, _ := root.descend(p, 1)
	return n != nil
}

// Clone returns a deep copy of the forest.
func (f *Forest) Clone() *Forest {
	g := NewForest()
	for name, root := range f.dbs {
		g.dbs[name] = root.Clone()
	}
	return g
}

// Equal reports whether two forests contain equal databases under the same
// names.
func (f *Forest) Equal(g *Forest) bool {
	if len(f.dbs) != len(g.dbs) {
		return false
	}
	for name, root := range f.dbs {
		groot, ok := g.dbs[name]
		if !ok || !root.Equal(groot) {
			return false
		}
	}
	return true
}
