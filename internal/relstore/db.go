package relstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// A DB is a collection of tables in one store file, with a JSON catalog
// persisted in a heap whose first page is recorded in the store header.
// Catalog changes (new tables, moved index roots, row counters) are kept in
// memory and written back with the pages: by a GroupCommit that writes them,
// and by Close.
type DB struct {
	mu      sync.Mutex
	bp      *BufferPool
	catalog *Heap
	tables  map[string]*Table
	dirty   bool
	wal     *WAL // see AttachWAL
	// rows is the body of the open commit's rows record: every row Insert
	// stored since the last commit, while the commit may still be logged as
	// its rows. writePages says it may not: it dirtied more than half the
	// pool or created a table, so GroupCommit writes its pages.
	rows       []byte
	writePages bool
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
	cat, err := newHeap(bp)
	if err != nil {
		bp.Close()
		return nil, err
	}
	if err := pager.setCatalog(cat.first); err != nil {
		bp.Close()
		return nil, err
	}
	return &DB{bp: bp, catalog: cat, tables: make(map[string]*Table)}, nil
}

// Open opens an existing database file.
func Open(path string) (*DB, error) {
	pager, err := OpenPager(path)
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
		return nil, fmt.Errorf("%w: %q", errTableExists, schema.Name)
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
	db.dirty, db.writePages = true, true
	return t, db.flushCatalogLocked()
}

// Table returns an open table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNoSuchTable, name)
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

// rowStored records a row Insert just stored in t — its encoded primary key
// and value — for the open commit: t's metadata (root pages, counters)
// changed, and with a log attached the row goes into the commit's rows
// record until the commit has dirtied more than half the pool.
func (db *DB) rowStored(t *Table, pk, val []byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Index roots move on splits; refresh them in the metadata.
	t.meta.Root = t.primary.Root()
	for i := range t.meta.Schema.Indexes {
		t.meta.Schema.Indexes[i].Root = t.seconds[i].Root()
	}
	db.dirty = true
	if db.wal == nil || db.writePages {
		return
	}
	if db.bp.dirtyPages() > db.bp.cap/2 {
		db.writePages = true
		return
	}
	db.rows = appendLoggedRow(db.rows, t.meta.Schema.Name, pk, val)
}

// appendLoggedRow appends a row to a rows record body: the table's name, the
// encoded primary key and the encoded value, each behind a uvarint length.
func appendLoggedRow(body []byte, table string, pk, val []byte) []byte {
	body = append(binary.AppendUvarint(body, uint64(len(table))), table...)
	body = append(binary.AppendUvarint(body, uint64(len(pk))), pk...)
	return append(binary.AppendUvarint(body, uint64(len(val))), val...)
}

// nextLoggedRow splits the first row off a rows record body; a body that is
// not rows is errCorrupt.
func nextLoggedRow(body []byte) (table, pk, val, rest []byte, err error) {
	var fields [3][]byte
	for i := range fields {
		size, n := binary.Uvarint(body)
		if n <= 0 || size > uint64(len(body)-n) {
			return nil, nil, nil, nil, fmt.Errorf("%w: rows record field runs past its record", errCorrupt)
		}
		fields[i], body = body[n:n+int(size)], body[n+int(size):]
	}
	return fields[0], fields[1], fields[2], body, nil
}

// redo inserts the rows of rows record bodies, in order, that are not
// stored yet (see Table.redo) and returns how many it inserted.
func (db *DB) redo(bodies [][]byte) (n int, err error) {
	for _, body := range bodies {
		for len(body) > 0 {
			var table, pk, val []byte
			if table, pk, val, body, err = nextLoggedRow(body); err != nil {
				return n, err
			}
			db.mu.Lock()
			t, ok := db.tables[string(table)]
			db.mu.Unlock()
			if !ok {
				return n, fmt.Errorf("%w: logged row of %w %q", errCorrupt, errNoSuchTable, table)
			}
			inserted, err := t.redo(pk, val)
			if err != nil {
				return n, err
			}
			if inserted {
				n++
			}
		}
	}
	return n, nil
}

// flushCatalogLocked rewrites the catalog heap from current table metadata.
// Caller holds db.mu.
func (db *DB) flushCatalogLocked() error {
	if !db.dirty {
		return nil
	}
	// Rewrite wholesale, in the pages the catalog already has.
	if err := db.catalog.reset(); err != nil {
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

// AttachWAL write-ahead-logs every subsequent commit of this database: from
// here on a page leaves memory only inside a logged group, and a
// GroupCommit makes a batch of logical writes durable with a single fsync.
// Pages dirtied before the log was attached are logged and written here, as
// one group, so every commit after it is logged over a store the log
// covers. Close the log after the database, whose Close truncates it.
func (db *DB) AttachWAL(w *WAL) error {
	db.bp.pager.AttachWAL(w)
	db.mu.Lock()
	defer db.mu.Unlock()
	db.wal = w
	return db.writePagesLocked()
}

// GroupCommit makes everything written so far durable with one log write
// and one log fsync, however many records it carries. Under a log a commit
// is logged as its rows (WAL.appendRows) and its pages stay dirty in the
// pool. Its pages are written — the catalog refreshed and every dirty page,
// with the pager header, logged as one group and written to the data file
// — only when they must leave memory: when the commit leaves more than half
// the pool dirty, when it created a table, or when the log has grown past
// walCheckpointBytes; that last one also checkpoints, fsyncing the data file
// and truncating the log. Without a log GroupCommit writes the pages and
// fsyncs the data file, every time. This is the commit primitive behind
// relprov's Append; when it returns, the committed state survives a crash
// (RecoverPager replays and redoes it on reopen; an in-flight commit that
// never returned is replayed whole or not at all).
func (db *DB) GroupCommit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil || db.writePages || db.wal.Size()+int64(len(db.rows)) >= walCheckpointBytes {
		return db.writePagesLocked()
	}
	if len(db.rows) == 0 {
		return nil
	}
	if err := db.wal.appendRows(db.rows); err != nil {
		return err
	}
	db.rows = db.rows[:0]
	db.bp.hold()
	return nil
}

// writePagesLocked commits by writing the pages: the catalog is refreshed
// and every dirty page goes out as one group (BufferPool.flushGroup), and a
// log past walCheckpointBytes is checkpointed. Caller holds db.mu.
func (db *DB) writePagesLocked() error {
	db.rows, db.writePages = db.rows[:0], false
	if err := db.flushCatalogLocked(); err != nil {
		return err
	}
	if err := db.bp.flushGroup(); err != nil {
		return err
	}
	if db.wal != nil && db.wal.Size() >= walCheckpointBytes {
		return db.bp.pager.checkpoint()
	}
	return nil
}

// Size returns the store file size in bytes after writing back every page,
// the "physical size" the paper reports at the top of Figure 8's bars.
func (db *DB) Size() (int64, error) {
	db.mu.Lock()
	err := db.writePagesLocked()
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return db.bp.pager.fileSize()
}

// NumPages returns the number of pages in the store file, its header page
// included: the file's size in pages once everything is written back.
func (db *DB) NumPages() int64 {
	return int64(db.bp.pager.NumPages())
}

// IOStats exposes the pager's fsync, log-byte and checkpoint counters.
func (db *DB) IOStats() IOStats {
	return db.bp.pager.IOStats()
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
