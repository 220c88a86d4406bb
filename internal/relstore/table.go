package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
	Root pageID `json:"root"`
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
	Root     pageID      `json:"root"`
	RowCount int64       `json:"rows"`
	ByteSize int64       `json:"bytes"`
}

// A Table is a typed relation stored index-organized in a primary B+tree,
// with optional covering secondary B+trees: the primary key is the encoded
// primary-key columns and its value the encoded other columns; a secondary
// key is the encoded index columns followed by the primary-key columns not
// among them (which makes every entry unique), and its value is the primary
// value, byte for byte. An index entry thus holds the whole row — the
// primary key is its key's fields in another order — and a read through an
// index never descends the primary tree.
type Table struct {
	db      *DB
	meta    tableMeta
	primary *btree
	seconds []*btree // parallel to meta.Schema.Indexes

	colIdx  map[string]int
	types   []ColType
	keyIdx  []int // the primary-key columns
	keyType []ColType
	valIdx  []int // the other columns, in column order
	valType []ColType
	indexes []indexPlan // parallel to meta.Schema.Indexes

	decoded atomic.Int64 // rows decoded since open; see RowsDecoded
	ixKey   []byte       // the writer's index key, reused from row to row
}

// An indexPlan is the layout of one secondary index's keys.
type indexPlan struct {
	cols  []int     // the column of each field: the index columns, then the primary-key columns not among them
	types []ColType // parallel to cols
}

// Errors returned by table operations.
var (
	errNoSuchTable = errors.New("relstore: no such table")
	errTableExists = errors.New("relstore: table already exists")
	errNoSuchIndex = errors.New("relstore: no such index")
	ErrRowNotFound = errors.New("relstore: row not found")
	errBadSchema   = errors.New("relstore: invalid schema")
)

func newTable(db *DB, meta tableMeta) (*Table, error) {
	t := &Table{db: db, meta: meta}
	if err := t.buildPlan(); err != nil {
		return nil, err
	}
	t.primary = openBTree(db.bp, meta.Root)
	for _, ix := range meta.Schema.Indexes {
		t.seconds = append(t.seconds, openBTree(db.bp, ix.Root))
	}
	return t, nil
}

// buildPlan resolves column names to positions and validates the schema.
func (t *Table) buildPlan() error {
	s := &t.meta.Schema
	if s.Name == "" || len(s.Columns) == 0 || len(s.Key) == 0 {
		return fmt.Errorf("%w: table needs a name, columns and a key", errBadSchema)
	}
	t.colIdx = make(map[string]int, len(s.Columns))
	t.types = make([]ColType, len(s.Columns))
	for i, c := range s.Columns {
		if _, dup := t.colIdx[c.Name]; dup {
			return fmt.Errorf("%w: duplicate column %q", errBadSchema, c.Name)
		}
		switch c.Type {
		case TInt, TStr, TBytes, TPath:
		default:
			return fmt.Errorf("%w: column %q has unknown type", errBadSchema, c.Name)
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
				return nil, nil, fmt.Errorf("%w: unknown column %q", errBadSchema, n)
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
	for j, typ := range t.types {
		if !slices.Contains(t.keyIdx, j) {
			t.valIdx, t.valType = append(t.valIdx, j), append(t.valType, typ)
		}
	}
	for _, ix := range s.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("%w: unnamed index", errBadSchema)
		}
		var plan indexPlan
		if plan.cols, plan.types, err = resolve(ix.Columns); err != nil {
			return err
		}
		for i, j := range t.keyIdx {
			if !slices.Contains(plan.cols, j) {
				plan.cols, plan.types = append(plan.cols, j), append(plan.types, t.keyType[i])
			}
		}
		t.indexes = append(t.indexes, plan)
	}
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.meta.Schema.Name }

// Schema returns a copy of the table schema.
func (t *Table) Schema() TableSchema { return t.meta.Schema }

// RowCount returns the number of stored rows (O(1), maintained).
func (t *Table) RowCount() int64 { return t.meta.RowCount }

// ByteSize returns the total size of stored rows in bytes (O(1),
// maintained): each row's encoded primary key and value as the codec writes
// them, before front coding. Every column counts once — the key columns are
// not repeated in the value. Page overhead is excluded; see DB.Size for the
// file size.
func (t *Table) ByteSize() int64 { return t.meta.ByteSize }

// encodeRow encodes a row as its primary-tree entry, refusing with
// ErrKeyTooBig a row whose entry in the primary tree or in any index would
// pass MaxEntrySize — before anything of it is stored. pk and val share one
// buffer.
func (t *Table) encodeRow(row Row) (pk, val []byte, err error) {
	if len(row) != len(t.types) {
		return nil, nil, fmt.Errorf("relstore: row has %d values, table has %d columns", len(row), len(t.types))
	}
	size := 0
	for _, j := range t.keyIdx {
		size += keyValueLen(t.types[j], row[j])
	}
	for _, j := range t.valIdx {
		size += valueLen(row[j])
	}
	buf := make([]byte, 0, size)
	for _, j := range t.keyIdx {
		if buf, err = appendKeyValue(buf, t.types[j], row[j]); err != nil {
			return nil, nil, err
		}
	}
	pk = buf[:len(buf):len(buf)]
	for i, j := range t.valIdx {
		if buf, err = appendValue(buf, i, t.valType[i], row[j]); err != nil {
			return nil, nil, err
		}
	}
	val = buf[len(pk):]
	size = entrySize(len(pk), len(val))
	for _, plan := range t.indexes {
		n := 0
		for f, j := range plan.cols {
			n += keyValueLen(plan.types[f], row[j])
		}
		size = max(size, entrySize(n, len(val)))
	}
	if size > MaxEntrySize {
		return nil, nil, fmt.Errorf("%w: a row of %d bytes in one tree, of at most %d", ErrKeyTooBig, size, MaxEntrySize)
	}
	return pk, val, nil
}

// An EncodedRow is a row as Key encoded it for one table: its primary-tree
// entry, which InsertEncoded stores. Only Key makes one, so what is stored
// is always the encoding of the row that is indexed.
type EncodedRow struct {
	t       *Table
	row     Row
	pk, val []byte
}

// Key returns the row's encoded primary key.
func (e EncodedRow) Key() []byte { return e.pk }

// Key encodes row as its primary-tree entry, having checked everything
// Insert would refuse the row for on its own account: a value of the wrong
// type, or — ErrKeyTooBig — an entry too large for one of the trees.
// InsertEncoded stores the row from this encoding; row must not change in
// between.
func (t *Table) Key(row Row) (EncodedRow, error) {
	pk, val, err := t.encodeRow(row)
	if err != nil {
		return EncodedRow{}, err
	}
	return EncodedRow{t, row, pk, val}, nil
}

// appendIndexKey appends the key of row in a secondary index. The row has
// passed encodeRow.
func (t *Table) appendIndexKey(buf []byte, plan indexPlan, row Row) []byte {
	for f, j := range plan.cols {
		buf, _ = appendKeyValue(buf, plan.types[f], row[j])
	}
	return buf
}

func (t *Table) findIndex(name string) int {
	for i, ix := range t.meta.Schema.Indexes {
		if ix.Name == name {
			return i
		}
	}
	return -1
}

// Insert stores a new row; it fails with errDupKey if the primary key
// exists.
func (t *Table) Insert(row Row) error {
	e, err := t.Key(row)
	if err != nil {
		return err
	}
	return t.InsertEncoded(e)
}

// InsertEncoded is Insert of a row Key has encoded, which it does not
// encode again: a caller that checks rows before storing any pays for one
// encoding of each.
func (t *Table) InsertEncoded(e EncodedRow) error {
	if e.t != t {
		return fmt.Errorf("relstore: a row not encoded by table %q's Key", t.Name())
	}
	if err := t.primary.Insert(e.pk, e.val); err != nil {
		return err
	}
	return t.indexRow(e.row, e.pk, e.val)
}

// indexRow adds the index entries — each carrying the row's stored value —
// and the counters of a row just stored. An index key ends with the
// primary-key columns not already in it, so once the primary insert has
// succeeded no index holds the key yet. The keys are built in t.ixKey: the
// tree copies what it keeps.
func (t *Table) indexRow(row Row, pk, val []byte) error {
	for i, plan := range t.indexes {
		t.ixKey = t.appendIndexKey(t.ixKey[:0], plan, row)
		if err := t.seconds[i].Insert(t.ixKey, val); err != nil {
			return err
		}
	}
	t.meta.RowCount++
	t.meta.ByteSize += int64(len(pk) + len(val))
	t.db.rowStored(t, pk, val)
	return nil
}

// redo stores the row pk→val that a rows record logged, as Insert stored
// it, unless it is stored already: then it must be with the same bytes, or
// the store and its log disagree (errCorrupt). It reports whether it
// inserted the row.
func (t *Table) redo(pk, val []byte) (bool, error) {
	stored, err := t.primary.Get(pk)
	if err == nil {
		if !bytes.Equal(stored, val) {
			return false, fmt.Errorf("%w: logged row %x of %q is stored with other bytes", errCorrupt, pk, t.Name())
		}
		return false, nil
	}
	if !errors.Is(err, errKeyNotFound) {
		return false, err
	}
	row, err := t.decodeRow(pk, val)
	if err != nil {
		return false, err
	}
	return true, t.Insert(row)
}

// Get fetches the row with the given primary key values.
func (t *Table) Get(keyVals ...Value) (Row, error) {
	if len(keyVals) != len(t.keyIdx) {
		return nil, fmt.Errorf("relstore: %d key values for %d key columns", len(keyVals), len(t.keyIdx))
	}
	pk, err := encodeKey(t.keyType, keyVals)
	if err != nil {
		return nil, err
	}
	val, err := t.primary.Get(pk)
	if errors.Is(err, errKeyNotFound) {
		return nil, fmt.Errorf("%w: %v", ErrRowNotFound, keyVals)
	}
	if err != nil {
		return nil, err
	}
	return t.decodeRow(pk, val)
}

// Has reports whether a row with the encoded primary key pk (as built by
// KeyPrefix with every key column) exists. It compares keys only: no row is
// fetched or decoded.
func (t *Table) Has(pk []byte) (bool, error) {
	return t.primary.Has(pk)
}

// LastKey returns the largest encoded primary key, ok=false on an empty
// table: one rightmost descent of the primary tree, O(height) pages, and no
// row decoded.
func (t *Table) LastKey() (key []byte, ok bool, err error) {
	return t.primary.last()
}

// RowsDecoded returns the number of rows this table has decoded since it
// was opened, by any method — with DB.CacheStats, the work a read did.
func (t *Table) RowsDecoded() int64 { return t.decoded.Load() }

// decodeRow reassembles a row from its primary-tree entry: the key columns
// from the key, the others from the value.
func (t *Table) decodeRow(pk, val []byte) (Row, error) {
	t.decoded.Add(1)
	keyVals, err := decodeKey(t.keyType, pk)
	if err != nil {
		return nil, err
	}
	vals, err := decodeRow(t.valType, val)
	if err != nil {
		return nil, err
	}
	row := make(Row, len(t.types))
	for i, j := range t.keyIdx {
		row[j] = keyVals[i]
	}
	for i, j := range t.valIdx {
		row[j] = vals[i]
	}
	return row, nil
}

// Scan calls fn for every row in primary-key order, stopping early if fn
// returns false.
func (t *Table) Scan(fn func(Row) bool) error {
	return t.scanKeyFrom(nil, nil, func(_ []byte, row Row) bool { return fn(row) })
}

// scanKeyFrom calls fn for every row whose encoded primary key is ≥ from
// and begins with prefix (nil = the whole table; from must not sort before
// prefix), in key order, until fn returns false. The walk stops on the
// first key outside the prefix without decoding its row. fn receives the
// encoded key along with the row, so a caller iterating in bounded chunks
// can record where a chunk ended and resume strictly after it (key‖0x00 is
// the immediate successor of key in bytewise order).
func (t *Table) scanKeyFrom(from, prefix []byte, fn func(key []byte, row Row) bool) error {
	var derr error
	err := t.primary.scanFrom(from, prefix, func(pk, val []byte) bool {
		row, err := t.decodeRow(pk, val)
		if err != nil {
			derr = err
			return false
		}
		return fn(pk, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// ScanEncodedFrom is scanKeyFrom handing fn each row as stored — its encoded
// primary key and its value — instead of a decoded Row. The value is the row
// codec's encoding (see appendValue) of the columns outside the primary key,
// in column order: an int as a zigzag varint, a string or bytes behind a
// uvarint length; the key columns are in pk, in the key codec's. pk and val
// are valid until fn returns: a caller that decodes them itself pays for no
// Row and no copy. Every row handed out counts in RowsDecoded.
func (t *Table) ScanEncodedFrom(from, prefix []byte, fn func(pk, val []byte) bool) error {
	return t.primary.scanFrom(from, prefix, func(pk, val []byte) bool {
		t.decoded.Add(1)
		return fn(pk, val)
	})
}

// ScanIndexEncodedFrom is ScanEncodedFrom over a secondary index (from and
// prefix are encoded index key fields): fn sees each entry as stored — the
// encoded index key, whose fields are the index columns and then the
// primary-key columns not among them, and the row's stored value (see
// ScanEncodedFrom), which the entry carries. The primary tree is not read. key and val are
// valid until fn returns; the entry that ends the walk is not handed out.
// Every entry handed out counts in RowsDecoded.
func (t *Table) ScanIndexEncodedFrom(index string, from, prefix []byte, fn func(key, val []byte) bool) error {
	ixi := t.findIndex(index)
	if ixi < 0 {
		return fmt.Errorf("%w: %q", errNoSuchIndex, index)
	}
	return t.seconds[ixi].scanFrom(from, prefix, func(key, val []byte) bool {
		t.decoded.Add(1)
		return fn(key, val)
	})
}
