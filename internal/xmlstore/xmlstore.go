// Package xmlstore is a native tree (XML) database standing in for Timber,
// the store hosting the paper's target database MiMI. It keeps the canonical
// tree in memory — the paper's working set also fit in RAM — and persists it
// to disk in the canonical binary tree encoding, with XML import/export for
// interchange.
//
// The store exposes exactly the update surface the CPDB wrapper needs
// (Figure 6): node lookup, insert of an empty/leaf node, subtree delete, and
// subtree paste, all addressed by paths.
package xmlstore

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/path"
	"repro/internal/tree"
)

// Errors returned by the store.
var (
	errClosed = errors.New("xmlstore: store is closed")
)

// A Store is one named tree database.
type Store struct {
	mu     sync.RWMutex
	name   string
	root   *tree.Node
	file   string // "" for purely in-memory stores
	closed bool
}

// NewMem creates an in-memory store with the given database name and
// initial content (nil means empty). The initial tree is cloned.
func NewMem(name string, initial *tree.Node) *Store {
	if initial == nil {
		initial = tree.NewTree()
	}
	return &Store{name: name, root: initial.Clone()}
}

// Create creates a store persisted at file, with initial content.
func Create(name, file string, initial *tree.Node) (*Store, error) {
	s := NewMem(name, initial)
	s.file = file
	if err := s.save(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads a store previously saved to file.
func Open(name, file string) (*Store, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	root, err := tree.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: loading %s: %w", file, err)
	}
	return &Store{name: name, root: root, file: file}, nil
}

// Name returns the database name (the first path component addressing it).
func (s *Store) Name() string { return s.name }

// save persists the tree to the store's file (a no-op for in-memory
// stores). The write is atomic: a temp file is renamed over the target.
func (s *Store) save() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errClosed
	}
	if s.file == "" {
		return nil
	}
	tmp := s.file + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.root.WriteBinary(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, s.file)
}

// Close saves (if file-backed) and marks the store closed.
func (s *Store) Close() error {
	if err := s.save(); err != nil {
		return err
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// rel converts an absolute path (beginning with the store's name) to a
// store-relative path.
func (s *Store) rel(p path.Path) (path.Path, error) {
	if p.IsRoot() {
		return path.Root, nil
	}
	if p.DB() != s.name {
		return path.Root, fmt.Errorf("xmlstore: path %q does not address database %q", p, s.name)
	}
	return p.TrimPrefix(path.New(s.name))
}

// Get returns a deep copy of the subtree at the absolute path p (or the
// whole database for the path naming just the store).
func (s *Store) Get(p path.Path) (*tree.Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errClosed
	}
	rp, err := s.rel(p)
	if err != nil {
		return nil, err
	}
	n, err := s.root.Get(rp)
	if err != nil {
		return nil, err
	}
	return n.Clone(), nil
}

// Has reports whether the absolute path exists.
func (s *Store) Has(p path.Path) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	rp, err := s.rel(p)
	if err != nil {
		return false
	}
	return s.root.Has(rp)
}

// Snapshot returns a deep copy of the entire database tree.
func (s *Store) Snapshot() *tree.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.root.Clone()
}

// Insert adds the edge {label: value} under the node at absolute path p;
// value must be nil (empty tree) or a leaf.
func (s *Store) Insert(p path.Path, label string, value *tree.Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	rp, err := s.rel(p)
	if err != nil {
		return err
	}
	parent, err := s.root.Get(rp)
	if err != nil {
		return err
	}
	if value == nil {
		value = tree.NewTree()
	}
	if !value.IsLeaf() && value.NumChildren() > 0 {
		return fmt.Errorf("xmlstore: insert value must be a data value or empty tree")
	}
	if err := parent.AddChild(label, value.Clone()); err != nil {
		return err
	}
	return nil
}

// Delete removes the node at the absolute path p (and its subtree).
func (s *Store) Delete(p path.Path) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	rp, err := s.rel(p)
	if err != nil {
		return err
	}
	if rp.IsRoot() {
		return fmt.Errorf("xmlstore: cannot delete the database root")
	}
	parent, err := s.root.Get(rp.MustParent())
	if err != nil {
		return err
	}
	if err := parent.RemoveChild(rp.Base()); err != nil {
		return err
	}
	return nil
}

// Paste replaces (or creates) the node at absolute path p with a deep copy
// of subtree; p's parent must exist.
func (s *Store) Paste(p path.Path, subtree *tree.Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	rp, err := s.rel(p)
	if err != nil {
		return err
	}
	if rp.IsRoot() {
		return fmt.Errorf("xmlstore: cannot paste over the database root")
	}
	parent, err := s.root.Get(rp.MustParent())
	if err != nil {
		return err
	}
	if err := parent.SetChild(rp.Base(), subtree.Clone()); err != nil {
		return err
	}
	return nil
}
