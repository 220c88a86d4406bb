package relstore

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// A DB is a collection of tables in one store file, with a JSON catalog
// persisted in a heap whose first page is recorded in the store header.
// Catalog changes (new tables, moved index roots, row counters) are kept in
// memory and written back by GroupCommit/Close.
type DB struct {
	mu      sync.Mutex
	bp      *BufferPool
	catalog *Heap
	tables  map[string]*Table
	dirty   bool
}

// DefaultCachePages is the buffer-pool capacity of a DB.
const DefaultCachePages = 256

// Create creates a new database file, truncating any existing file.
func Create(path string) (*DB, error) {
	pager, err := CreatePager(path)
	if err != nil {
		return nil, err
	}
	bp := NewBufferPool(pager, DefaultCachePages)
	cat, err := NewHeap(bp)
	if err != nil {
		bp.Close()
		return nil, err
	}
	if err := pager.SetCatalog(cat.First()); err != nil {
		bp.Close()
		return nil, err
	}
	return &DB{bp: bp, catalog: cat, tables: make(map[string]*Table)}, nil
}

// Open opens an existing database file.
func Open(path string) (*DB, error) {
	pager, err := OpenPager(path, false)
	if err != nil {
		return nil, err
	}
	bp := NewBufferPool(pager, DefaultCachePages)
	cat, err := OpenHeap(bp, pager.Catalog())
	if err != nil {
		bp.Close()
		return nil, err
	}
	db := &DB{bp: bp, catalog: cat, tables: make(map[string]*Table)}
	if err := db.loadCatalog(); err != nil {
		bp.Close()
		return nil, err
	}
	return db, nil
}

func (db *DB) loadCatalog() error {
	var metas []tableMeta
	var jerr error
	err := db.catalog.Scan(func(data []byte) bool {
		var m tableMeta
		if jerr = json.Unmarshal(data, &m); jerr != nil {
			return false
		}
		metas = append(metas, m)
		return true
	})
	if err != nil {
		return err
	}
	if jerr != nil {
		return fmt.Errorf("relstore: reading catalog record %d: %w", len(metas), jerr)
	}
	for _, m := range metas {
		t, err := newTable(db, m)
		if err != nil {
			return fmt.Errorf("relstore: loading table %q: %w", m.Schema.Name, err)
		}
		db.tables[m.Schema.Name] = t
	}
	return nil
}

// CreateTable creates a new table from the schema, allocating its primary
// and secondary index trees.
func (db *DB) CreateTable(schema TableSchema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[schema.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, schema.Name)
	}
	primary, err := NewBTree(db.bp)
	if err != nil {
		return nil, err
	}
	meta := tableMeta{Schema: schema, Root: primary.Root()}
	for i := range meta.Schema.Indexes {
		ix, err := NewBTree(db.bp)
		if err != nil {
			return nil, err
		}
		meta.Schema.Indexes[i].Root = ix.Root()
	}
	t, err := newTable(db, meta)
	if err != nil {
		return nil, err
	}
	db.tables[schema.Name] = t
	db.dirty = true
	return t, db.flushCatalogLocked()
}

// Table returns an open table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// persistTable records that a table's metadata (root pages, counters)
// changed; the catalog is written back on GroupCommit/Close.
func (db *DB) persistTable(t *Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Index roots move on splits; refresh them in the metadata.
	t.meta.Root = t.primary.Root()
	for i := range t.meta.Schema.Indexes {
		t.meta.Schema.Indexes[i].Root = t.seconds[i].Root()
	}
	db.dirty = true
	return nil
}

// flushCatalogLocked rewrites the catalog heap from current table metadata.
// Caller holds db.mu.
func (db *DB) flushCatalogLocked() error {
	if !db.dirty {
		return nil
	}
	// Rewrite wholesale, in the pages the catalog already has.
	if err := db.catalog.Reset(); err != nil {
		return err
	}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		t.meta.Root = t.primary.Root()
		for i := range t.meta.Schema.Indexes {
			t.meta.Schema.Indexes[i].Root = t.seconds[i].Root()
		}
		data, err := json.Marshal(t.meta)
		if err != nil {
			return err
		}
		if err := db.catalog.Insert(data); err != nil {
			return err
		}
	}
	db.dirty = false
	return nil
}

func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AttachWAL write-ahead-logs every subsequent page write of this database:
// from here on a page leaves memory only inside a GroupCommit, which makes a
// batch of logical writes durable with a single fsync. Close the log after
// the database, whose Close truncates it.
func (db *DB) AttachWAL(w *WAL) {
	db.bp.Pager().AttachWAL(w)
}

// GroupCommit makes everything written so far durable at the cost of its
// pages: the catalog is refreshed and every dirty page, with the pager
// header, goes to the attached log as one group — one write, one fsync,
// however many records it carries — and then to the data file, which is
// fsynced only by the checkpoint that truncates the log and by Close
// (without a log: here, every time). This is the commit primitive behind
// relprov's Append; when it returns, the committed state survives a
// crash (RecoverPager replays it on reopen; an in-flight group that never
// returned is replayed whole or not at all).
func (db *DB) GroupCommit() error {
	db.mu.Lock()
	if err := db.flushCatalogLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	db.mu.Unlock()
	return db.bp.FlushGroup()
}

// Size returns the store file size in bytes after a GroupCommit, the
// "physical size" the paper reports at the top of Figure 8's bars.
func (db *DB) Size() (int64, error) {
	if err := db.GroupCommit(); err != nil {
		return 0, err
	}
	return db.bp.Pager().FileSize()
}

// NumPages returns the number of pages in the store file, its header page
// included: the file's size in pages once everything is written back.
func (db *DB) NumPages() int64 {
	return int64(db.bp.Pager().NumPages())
}

// IOStats exposes the pager's fsync, log-byte and checkpoint counters.
func (db *DB) IOStats() IOStats {
	return db.bp.Pager().IOStats()
}

// CacheStats exposes buffer-pool hit/miss counters.
func (db *DB) CacheStats() (hits, misses int64) {
	return db.bp.Stats()
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	if err := db.flushCatalogLocked(); err != nil {
		db.mu.Unlock()
		db.bp.Close()
		return err
	}
	db.mu.Unlock()
	return db.bp.Close()
}
