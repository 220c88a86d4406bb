package relstore

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// A Column describes one table column.
type Column struct {
	Name string  `json:"name"`
	Type ColType `json:"type"`
}

// An IndexDef describes a secondary index over a subset of columns.
type IndexDef struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	// Root is the index tree's root page; maintained by the engine.
	Root PageID `json:"root"`
}

// A TableSchema declares a table: its columns, primary key, and secondary
// indexes. Primary keys are mandatory (the engine stores tables
// index-organized, like InnoDB).
type TableSchema struct {
	Name    string     `json:"name"`
	Columns []Column   `json:"columns"`
	Key     []string   `json:"key"`
	Indexes []IndexDef `json:"indexes"`
}

// tableMeta is the persisted form of a table.
type tableMeta struct {
	Schema   TableSchema `json:"schema"`
	Root     PageID      `json:"root"`
	RowCount int64       `json:"rows"`
	ByteSize int64       `json:"bytes"`
}

// A Table is a typed relation stored index-organized in a primary B+tree
// (key = encoded primary-key columns, value = encoded row), with optional
// secondary B+trees mapping secondary keys to primary keys.
type Table struct {
	db      *DB
	meta    tableMeta
	primary *BTree
	seconds []*BTree // parallel to meta.Schema.Indexes

	colIdx  map[string]int
	keyIdx  []int
	keyType []ColType
	types   []ColType

	decoded atomic.Int64 // rows decoded since open; see RowsDecoded
}

// Errors returned by table operations.
var (
	ErrNoSuchTable = errors.New("relstore: no such table")
	ErrTableExists = errors.New("relstore: table already exists")
	ErrNoSuchIndex = errors.New("relstore: no such index")
	ErrRowNotFound = errors.New("relstore: row not found")
	ErrBadSchema   = errors.New("relstore: invalid schema")
)

func newTable(db *DB, meta tableMeta) (*Table, error) {
	t := &Table{db: db, meta: meta}
	if err := t.buildPlan(); err != nil {
		return nil, err
	}
	t.primary = OpenBTree(db.bp, meta.Root)
	for _, ix := range meta.Schema.Indexes {
		t.seconds = append(t.seconds, OpenBTree(db.bp, ix.Root))
	}
	return t, nil
}

// buildPlan resolves column names to positions and validates the schema.
func (t *Table) buildPlan() error {
	s := &t.meta.Schema
	if s.Name == "" || len(s.Columns) == 0 || len(s.Key) == 0 {
		return fmt.Errorf("%w: table needs a name, columns and a key", ErrBadSchema)
	}
	t.colIdx = make(map[string]int, len(s.Columns))
	t.types = make([]ColType, len(s.Columns))
	for i, c := range s.Columns {
		if _, dup := t.colIdx[c.Name]; dup {
			return fmt.Errorf("%w: duplicate column %q", ErrBadSchema, c.Name)
		}
		switch c.Type {
		case TInt, TStr, TBytes:
		default:
			return fmt.Errorf("%w: column %q has unknown type", ErrBadSchema, c.Name)
		}
		t.colIdx[c.Name] = i
		t.types[i] = c.Type
	}
	resolve := func(names []string) ([]int, []ColType, error) {
		idx := make([]int, len(names))
		typ := make([]ColType, len(names))
		for i, n := range names {
			j, ok := t.colIdx[n]
			if !ok {
				return nil, nil, fmt.Errorf("%w: unknown column %q", ErrBadSchema, n)
			}
			idx[i] = j
			typ[i] = t.types[j]
		}
		return idx, typ, nil
	}
	var err error
	if t.keyIdx, t.keyType, err = resolve(s.Key); err != nil {
		return err
	}
	for _, ix := range s.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("%w: unnamed index", ErrBadSchema)
		}
		if _, _, err := resolve(ix.Columns); err != nil {
			return err
		}
	}
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.meta.Schema.Name }

// Schema returns a copy of the table schema.
func (t *Table) Schema() TableSchema { return t.meta.Schema }

// RowCount returns the number of stored rows (O(1), maintained).
func (t *Table) RowCount() int64 { return t.meta.RowCount }

// ByteSize returns the total encoded size of stored rows in bytes (O(1),
// maintained). Page overhead is excluded; see DB.Size for the file size.
func (t *Table) ByteSize() int64 { return t.meta.ByteSize }

// primaryKey extracts and encodes the primary key of a row.
func (t *Table) primaryKey(row Row) ([]byte, error) {
	vals := make([]Value, len(t.keyIdx))
	for i, j := range t.keyIdx {
		if j >= len(row) {
			return nil, fmt.Errorf("relstore: row too short for key")
		}
		vals[i] = row[j]
	}
	return EncodeKey(t.keyType, vals)
}

// indexKey encodes a secondary-index key for a row: the index columns
// followed by the primary key (which makes every index entry unique).
func (t *Table) indexKey(ix IndexDef, row Row, pk []byte) ([]byte, error) {
	var buf []byte
	for _, name := range ix.Columns {
		j := t.colIdx[name]
		var err error
		buf, err = appendKeyValue(buf, t.types[j], row[j])
		if err != nil {
			return nil, err
		}
	}
	return append(buf, pk...), nil
}

// KeyPrefix encodes a partial primary key (the first len(vals) key columns)
// for prefix scans.
func (t *Table) KeyPrefix(vals ...Value) ([]byte, error) {
	return EncodeKey(t.keyType, vals)
}

// IndexPrefix encodes a partial secondary-index key for prefix scans.
func (t *Table) IndexPrefix(index string, vals ...Value) ([]byte, error) {
	ixi := t.findIndex(index)
	if ixi < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, index)
	}
	ix := t.meta.Schema.Indexes[ixi]
	if len(vals) > len(ix.Columns) {
		return nil, fmt.Errorf("relstore: %d values for %d index columns", len(vals), len(ix.Columns))
	}
	var buf []byte
	for i, v := range vals {
		j := t.colIdx[ix.Columns[i]]
		var err error
		buf, err = appendKeyValue(buf, t.types[j], v)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (t *Table) findIndex(name string) int {
	for i, ix := range t.meta.Schema.Indexes {
		if ix.Name == name {
			return i
		}
	}
	return -1
}

// Insert stores a new row; it fails with ErrDupKey if the primary key
// exists.
func (t *Table) Insert(row Row) error {
	pk, err := t.primaryKey(row)
	if err != nil {
		return err
	}
	enc, err := EncodeRow(t.types, row)
	if err != nil {
		return err
	}
	if err := t.primary.Insert(pk, enc); err != nil {
		return err
	}
	for i, ix := range t.meta.Schema.Indexes {
		ikey, err := t.indexKey(ix, row, pk)
		if err != nil {
			return err
		}
		if err := t.seconds[i].Put(ikey, pk); err != nil {
			return err
		}
	}
	t.meta.RowCount++
	t.meta.ByteSize += int64(len(enc) + len(pk))
	return t.db.persistTable(t)
}

// Put stores a row, replacing any existing row with the same primary key
// and keeping secondary indexes consistent.
func (t *Table) Put(row Row) error {
	pk, err := t.primaryKey(row)
	if err != nil {
		return err
	}
	old, errGet := t.primary.Get(pk)
	if errGet != nil && !errors.Is(errGet, ErrKeyNotFound) {
		return errGet
	}
	if old != nil {
		oldRow, err := t.decodeRow(old)
		if err != nil {
			return err
		}
		for i, ix := range t.meta.Schema.Indexes {
			ikey, err := t.indexKey(ix, oldRow, pk)
			if err != nil {
				return err
			}
			if err := t.seconds[i].Delete(ikey); err != nil && !errors.Is(err, ErrKeyNotFound) {
				return err
			}
		}
		t.meta.RowCount--
		t.meta.ByteSize -= int64(len(old) + len(pk))
	}
	enc, err := EncodeRow(t.types, row)
	if err != nil {
		return err
	}
	if err := t.primary.Put(pk, enc); err != nil {
		return err
	}
	for i, ix := range t.meta.Schema.Indexes {
		ikey, err := t.indexKey(ix, row, pk)
		if err != nil {
			return err
		}
		if err := t.seconds[i].Put(ikey, pk); err != nil {
			return err
		}
	}
	t.meta.RowCount++
	t.meta.ByteSize += int64(len(enc) + len(pk))
	return t.db.persistTable(t)
}

// Get fetches the row with the given primary key values.
func (t *Table) Get(keyVals ...Value) (Row, error) {
	if len(keyVals) != len(t.keyIdx) {
		return nil, fmt.Errorf("relstore: %d key values for %d key columns", len(keyVals), len(t.keyIdx))
	}
	pk, err := EncodeKey(t.keyType, keyVals)
	if err != nil {
		return nil, err
	}
	enc, err := t.primary.Get(pk)
	if errors.Is(err, ErrKeyNotFound) {
		return nil, fmt.Errorf("%w: %v", ErrRowNotFound, keyVals)
	}
	if err != nil {
		return nil, err
	}
	return t.decodeRow(enc)
}

// View hands visit the stored encoding of the row with the encoded primary
// key pk (as built by KeyPrefix with every key column) and reports whether
// there is one. The encoding is the row codec's (see EncodeRow): columns in
// order, an int as a zigzag varint, a string or bytes behind a uvarint
// length. visit sees the bytes in place, while the leaf is pinned, and must
// copy what it keeps: a caller that decodes them itself pays for no Row and
// no copy of the value. The row counts in RowsDecoded.
func (t *Table) View(pk []byte, visit func(enc []byte)) (bool, error) {
	return t.primary.View(pk, func(enc []byte) {
		t.decoded.Add(1)
		visit(enc)
	})
}

// Delete removes the row with the given primary key values.
func (t *Table) Delete(keyVals ...Value) error {
	if len(keyVals) != len(t.keyIdx) {
		return fmt.Errorf("relstore: %d key values for %d key columns", len(keyVals), len(t.keyIdx))
	}
	pk, err := EncodeKey(t.keyType, keyVals)
	if err != nil {
		return err
	}
	enc, err := t.primary.Get(pk)
	if errors.Is(err, ErrKeyNotFound) {
		return fmt.Errorf("%w: %v", ErrRowNotFound, keyVals)
	}
	if err != nil {
		return err
	}
	row, err := t.decodeRow(enc)
	if err != nil {
		return err
	}
	for i, ix := range t.meta.Schema.Indexes {
		ikey, err := t.indexKey(ix, row, pk)
		if err != nil {
			return err
		}
		if err := t.seconds[i].Delete(ikey); err != nil && !errors.Is(err, ErrKeyNotFound) {
			return err
		}
	}
	if err := t.primary.Delete(pk); err != nil {
		return err
	}
	t.meta.RowCount--
	t.meta.ByteSize -= int64(len(enc) + len(pk))
	return t.db.persistTable(t)
}

// Has reports whether a row with the encoded primary key pk (as built by
// KeyPrefix with every key column) exists. It compares keys only: no row is
// fetched or decoded.
func (t *Table) Has(pk []byte) (bool, error) {
	return t.primary.Has(pk)
}

// LastKey returns the largest encoded primary key, ok=false on an empty
// table, in O(tree height) pages and without decoding a row (see
// BTree.Last for the cost after deletes).
func (t *Table) LastKey() (key []byte, ok bool, err error) {
	return t.primary.Last()
}

// RowsDecoded returns the number of rows this table has decoded since it
// was opened, by any method — with DB.CacheStats, the work a read did.
func (t *Table) RowsDecoded() int64 { return t.decoded.Load() }

func (t *Table) decodeRow(enc []byte) (Row, error) {
	t.decoded.Add(1)
	return DecodeRow(t.types, enc)
}

// Scan calls fn for every row in primary-key order, stopping early if fn
// returns false.
func (t *Table) Scan(fn func(Row) bool) error {
	return t.ScanKeyPrefix(nil, fn)
}

// ScanKeyPrefix calls fn for every row whose encoded primary key begins
// with prefix (as built by KeyPrefix), in key order.
func (t *Table) ScanKeyPrefix(prefix []byte, fn func(Row) bool) error {
	return t.ScanKeyFrom(prefix, prefix, func(_ []byte, row Row) bool { return fn(row) })
}

// ScanKeyFrom calls fn for every row whose encoded primary key is ≥ from
// and begins with prefix (nil = the whole table; from must not sort before
// prefix), in key order, until fn returns false. The walk stops on the
// first key outside the prefix without decoding its row. fn receives the
// encoded key along with the row, so a caller iterating in bounded chunks
// can record where a chunk ended and resume strictly after it (key‖0x00 is
// the immediate successor of key in bytewise order).
func (t *Table) ScanKeyFrom(from, prefix []byte, fn func(key []byte, row Row) bool) error {
	var derr error
	err := t.ScanEncodedFrom(from, prefix, func(key, enc []byte) bool {
		row, err := DecodeRow(t.types, enc)
		if err != nil {
			derr = err
			return false
		}
		return fn(key, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// ScanEncodedFrom is ScanKeyFrom handing fn each row's stored encoding (see
// View) instead of a decoded Row. key and enc are valid until fn returns.
// Every row handed out counts in RowsDecoded.
func (t *Table) ScanEncodedFrom(from, prefix []byte, fn func(key, enc []byte) bool) error {
	return t.primary.ScanFrom(from, prefix, func(key, enc []byte) bool {
		t.decoded.Add(1)
		return fn(key, enc)
	})
}

// ScanIndexEncodedFrom is ScanEncodedFrom over a secondary index (a prefix
// as built by IndexPrefix): fn sees the encoded index entry key (index
// columns followed by the primary key) and the row's stored encoding, in
// place in its primary leaf (see View). The prefix is checked on the index
// key alone, so the entry that ends the walk — and a walk whose range is
// empty — costs no primary-tree fetch.
func (t *Table) ScanIndexEncodedFrom(index string, from, prefix []byte, fn func(key, enc []byte) bool) error {
	ixi := t.findIndex(index)
	if ixi < 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchIndex, index)
	}
	var derr error
	err := t.seconds[ixi].ScanFrom(from, prefix, func(key, pk []byte) bool {
		more := false
		found, err := t.View(pk, func(enc []byte) { more = fn(key, enc) })
		if err == nil && !found {
			err = fmt.Errorf("%w: %q", ErrKeyNotFound, pk)
		}
		derr = err
		return more && err == nil
	})
	if derr != nil {
		return derr
	}
	return err
}
