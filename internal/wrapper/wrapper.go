// Package wrapper implements the database wrappers of the paper's Figure 6:
// every source and target database is exposed to CPDB as a fully-keyed tree
// (XML) view with a small method surface —
//
//	SourceDB: treeFromDB(), copyNode()
//	TargetDB: addNode(), deleteNode(), pasteNode()
//
// — regardless of whether the underlying store is a native tree database
// (xmlstore, playing Timber) or a relational database (relstore, playing
// MySQL/OrganelleDB). The relational wrapper addresses data with the
// four-level paths of §2: DB/R/tid/F for field F of the tuple with key tid
// in table R.
package wrapper

import (
	"fmt"

	"repro/internal/path"
	"repro/internal/relstore"
	"repro/internal/tree"
	"repro/internal/xmlstore"
)

// A Source is a browsable database exposing the Figure 6 SourceDB surface.
type Source interface {
	// Name returns the database name — the first component of every
	// absolute path into it.
	Name() string
	// Tree returns the fully-keyed tree view of the database
	// (treeFromDB). The result is a private copy.
	Tree() (*tree.Node, error)
	// CopyNode returns a deep copy of the subtree at the absolute path p
	// (copyNode: "if the user copies a leaf node, the list is size 1;
	// otherwise each node in the subtree ... is contained").
	CopyNode(p path.Path) (*tree.Node, error)
	// Has reports whether the absolute path exists.
	Has(p path.Path) bool
}

// A Target is a Source that additionally accepts the Figure 6 TargetDB
// updates, translating tree edits to its native format.
type Target interface {
	Source
	// AddNode inserts a new node named name under the node at parent
	// (addNode). value is nil for an empty node, or a leaf.
	AddNode(parent path.Path, name string, value *tree.Node) error
	// DeleteNode deletes the node at the absolute path p and its subtree
	// (deleteNode).
	DeleteNode(p path.Path) error
	// PasteNode inserts (or replaces) the subtree n at the absolute path
	// p (pasteNode).
	PasteNode(p path.Path, n *tree.Node) error
}

// --- xmlstore (Timber-like) wrapper ---------------------------------------

// XMLTarget wraps an xmlstore.Store as a Target.
type XMLTarget struct {
	store *xmlstore.Store
}

var _ Target = (*XMLTarget)(nil)

// NewXMLTarget wraps the store.
func NewXMLTarget(s *xmlstore.Store) *XMLTarget { return &XMLTarget{store: s} }

// Name implements Source.
func (w *XMLTarget) Name() string { return w.store.Name() }

// Tree implements Source.
func (w *XMLTarget) Tree() (*tree.Node, error) { return w.store.Snapshot(), nil }

// CopyNode implements Source.
func (w *XMLTarget) CopyNode(p path.Path) (*tree.Node, error) { return w.store.Get(p) }

// Has implements Source.
func (w *XMLTarget) Has(p path.Path) bool { return w.store.Has(p) }

// AddNode implements Target.
func (w *XMLTarget) AddNode(parent path.Path, name string, value *tree.Node) error {
	return w.store.Insert(parent, name, value)
}

// DeleteNode implements Target.
func (w *XMLTarget) DeleteNode(p path.Path) error { return w.store.Delete(p) }

// PasteNode implements Target.
func (w *XMLTarget) PasteNode(p path.Path, n *tree.Node) error { return w.store.Paste(p, n) }

// --- relational (MySQL-like) source wrapper -------------------------------

// RelSource wraps a relstore database as a read-only Source, presenting the
// fully-keyed four-level view DB/R/tid/F. Only the listed tables are
// exposed, mirroring the paper's observation that typically only the
// "catalog" relation of a scientific database needs to be published.
type RelSource struct {
	name   string
	db     *relstore.DB
	tables []string
}

var _ Source = (*RelSource)(nil)

// NewRelSource wraps db under the given database name, exposing the listed
// tables (all tables when none are listed).
func NewRelSource(name string, db *relstore.DB, tables ...string) *RelSource {
	if len(tables) == 0 {
		tables = db.TableNames()
	}
	return &RelSource{name: name, db: db, tables: tables}
}

// Name implements Source.
func (w *RelSource) Name() string { return w.name }

// keyString renders a row's primary key as a single path label.
func keyString(t *relstore.Table, row relstore.Row) (string, error) {
	schema := t.Schema()
	cols := make(map[string]int, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[c.Name] = i
	}
	label := ""
	for i, k := range schema.Key {
		v := row[cols[k]]
		part := ""
		switch v := v.(type) {
		case int64:
			part = fmt.Sprint(v)
		case string:
			part = v
		case []byte:
			part = string(v)
		}
		if i > 0 {
			label += "|"
		}
		label += part
	}
	if !path.ValidLabel(label) {
		return "", fmt.Errorf("wrapper: key %q is not a valid path label", label)
	}
	return label, nil
}

// rowTree renders a row as the subtree {col: value, ...}. Key columns are
// omitted: in the fully-keyed view they already appear as the tuple's path
// label (DB/R/tid), so repeating them as fields would be redundant.
func rowTree(t *relstore.Table, row relstore.Row) (*tree.Node, error) {
	schema := t.Schema()
	isKey := make(map[string]bool, len(schema.Key))
	for _, k := range schema.Key {
		isKey[k] = true
	}
	n := tree.NewTree()
	for i, c := range schema.Columns {
		if isKey[c.Name] {
			continue
		}
		var leaf *tree.Node
		switch v := row[i].(type) {
		case int64:
			leaf = tree.NewLeaf(fmt.Sprint(v))
		case string:
			leaf = tree.NewLeaf(v)
		case []byte:
			leaf = tree.NewLeaf(string(v))
		default:
			return nil, fmt.Errorf("wrapper: unsupported value %T", v)
		}
		if err := n.AddChild(c.Name, leaf); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Tree implements Source: DB → table → key → field → value.
func (w *RelSource) Tree() (*tree.Node, error) {
	root := tree.NewTree()
	for _, name := range w.tables {
		t, err := w.db.Table(name)
		if err != nil {
			return nil, err
		}
		tn := tree.NewTree()
		var terr error
		t.Scan(func(row relstore.Row) bool {
			label, err := keyString(t, row)
			if err != nil {
				terr = err
				return false
			}
			rt, err := rowTree(t, row)
			if err != nil {
				terr = err
				return false
			}
			if err := tn.AddChild(label, rt); err != nil {
				terr = err
				return false
			}
			return true
		})
		if terr != nil {
			return nil, terr
		}
		if err := root.AddChild(name, tn); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// resolve maps an absolute path into (table, key, field) coordinates.
// Level 0 is the database name; deeper than 4 levels does not exist in the
// four-level view.
func (w *RelSource) resolve(p path.Path) (*relstore.Table, relstore.Row, path.Path, error) {
	if p.IsRoot() || p.DB() != w.name {
		return nil, nil, path.Root, fmt.Errorf("wrapper: path %q does not address %q", p, w.name)
	}
	rel, err := p.TrimPrefix(path.New(w.name))
	if err != nil {
		return nil, nil, path.Root, err
	}
	if rel.IsRoot() {
		return nil, nil, rel, nil // the whole database
	}
	exposed := false
	for _, t := range w.tables {
		if t == rel.At(0) {
			exposed = true
			break
		}
	}
	if !exposed {
		return nil, nil, path.Root, fmt.Errorf("wrapper: table %q not exposed", rel.At(0))
	}
	tbl, err := w.db.Table(rel.At(0))
	if err != nil {
		return nil, nil, path.Root, err
	}
	if rel.Len() == 1 {
		return tbl, nil, rel, nil // the whole table
	}
	row, err := w.lookupByLabel(tbl, rel.At(1))
	if err != nil {
		return nil, nil, path.Root, err
	}
	return tbl, row, rel, nil
}

// lookupByLabel finds a row whose rendered key label matches. Single-column
// keys are fetched directly; composite keys fall back to a scan.
func (w *RelSource) lookupByLabel(tbl *relstore.Table, label string) (relstore.Row, error) {
	schema := tbl.Schema()
	if len(schema.Key) == 1 {
		var colType relstore.ColType
		for _, c := range schema.Columns {
			if c.Name == schema.Key[0] {
				colType = c.Type
			}
		}
		switch colType {
		case relstore.TStr:
			return tbl.Get(label)
		case relstore.TBytes:
			return tbl.Get([]byte(label))
		case relstore.TInt:
			var v int64
			if _, err := fmt.Sscan(label, &v); err == nil {
				return tbl.Get(v)
			}
		}
	}
	var found relstore.Row
	err := tbl.Scan(func(row relstore.Row) bool {
		l, kerr := keyString(tbl, row)
		if kerr == nil && l == label {
			found = row
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if found == nil {
		return nil, fmt.Errorf("%w: key %q", relstore.ErrRowNotFound, label)
	}
	return found, nil
}

// CopyNode implements Source.
func (w *RelSource) CopyNode(p path.Path) (*tree.Node, error) {
	tbl, row, rel, err := w.resolve(p)
	if err != nil {
		return nil, err
	}
	switch rel.Len() {
	case 0:
		return w.Tree()
	case 1:
		full, err := w.Tree()
		if err != nil {
			return nil, err
		}
		return full.Get(rel)
	case 2:
		return rowTree(tbl, row)
	case 3:
		rt, err := rowTree(tbl, row)
		if err != nil {
			return nil, err
		}
		field := rt.Child(rel.At(2))
		if field == nil {
			return nil, fmt.Errorf("wrapper: no field %q", rel.At(2))
		}
		return field, nil
	default:
		return nil, fmt.Errorf("wrapper: path %q deeper than the four-level view", p)
	}
}

// Has implements Source.
func (w *RelSource) Has(p path.Path) bool {
	_, err := w.CopyNode(p)
	return err == nil
}
