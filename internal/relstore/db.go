package relstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
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
	bp      *bufferPool
	catalog *heap
	tables  map[string]*Table
	dirty   bool
	wal     *wal // the store's write-ahead log, or nil; the pager's too
	// rows is the body of the open commit's rows record: every row Insert
	// stored since the last commit, while the commit may still be logged as
	// its rows. writePages says it may not: it dirtied more than half the
	// pool or created a table, so GroupCommit writes its pages.
	rows       []byte
	writePages bool
}

// ErrCommitFailed wraps the error of a durable commit whose log write, page
// write or fsync failed, and every error the store returns after it: such a
// store fails closed. Its tables hold rows the log may not, so it refuses
// every read and write until it is closed and reopened, which recovers
// exactly the commits the log holds whole.
var ErrCommitFailed = errors.New("relstore: a commit failed; the store refuses every call until reopened")

// DefaultCachePages is the buffer-pool capacity of a DB.
const DefaultCachePages = 256

// Open opens the database in the file at path or, with create, creates one
// there, truncating any file of that name and dropping its log. With durable
// the database is write-ahead logged in path + ".wal" from its first page
// on: what a GroupCommit commits is durable when it returns, and Close
// checkpoints the log, leaving it empty, and closes it; a new database is
// durable from its first GroupCommit. Opening an existing database first
// replays a log that is not empty, durable or not: after a crash it holds
// everything committed since the data file was last fsynced. A store of
// another format version is refused with errFormatVersion before either
// file is touched.
func Open(path string, create, durable bool) (*DB, error) {
	db, _, err := open(path, create, durable)
	return db, err
}

// open is Open, and also returns the number of page images and rows the log
// restored.
func open(path string, create, durable bool) (db *DB, restored int, err error) {
	logPath := path + ".wal"
	var (
		f    *os.File
		w    *wal
		pgr  *pager
		rows [][]byte
	)
	defer func() {
		// Nothing of a failed open is written: its files are closed as they are.
		if err != nil {
			db = nil
			if f != nil {
				f.Close()
			}
			if w != nil {
				w.f.Close()
			}
		}
	}()
	if create {
		// A log already at logPath is the replaced store's: replayed, it
		// would bring that store's pages back over this one.
		if durable {
			w, err = createWAL(logPath)
		} else if err = os.Remove(logPath); errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
		if err != nil {
			return
		}
		if pgr, err = createPager(path, w); err != nil {
			return
		}
		f = pgr.f
		db, err = newDB(pgr, true)
		return db, 0, err
	}
	if f, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
		return
	}
	if fi, serr := os.Stat(logPath); durable || serr == nil && fi.Size() > 0 {
		if w, restored, rows, err = replayLog(f, logPath); err != nil {
			return
		}
	}
	if pgr, err = openPager(f, w); err != nil {
		return
	}
	if db, err = newDB(pgr, false); err != nil || w == nil {
		return
	}
	if len(rows) > 0 {
		var redone int
		if redone, err = db.redo(rows); err != nil {
			err = fmt.Errorf("relstore: recovery redo: %w", err)
			return
		}
		restored += redone
		db.mu.Lock()
		err = db.writePagesLocked()
		db.mu.Unlock()
		if err != nil {
			return
		}
	}
	if w.size() > 0 {
		if err = pgr.checkpoint(); err != nil {
			return
		}
	}
	if !durable {
		// The log is replayed; from here on the database is not logged.
		logFile := w.f
		db.wal, pgr.wal, w = nil, nil, nil
		err = logFile.Close()
	}
	return db, restored, err
}

// replayLog opens the log at logPath and replays it over the store file f:
// the pager header and page images of every whole group, in log order. It
// returns the log, the number of page images written and the rows records
// to redo. A store of another format version is refused with
// errFormatVersion before either file is touched; a page 0 that holds no
// header at all is left to the log, which has every header since the last
// checkpoint.
func replayLog(f *os.File, logPath string) (*wal, int, [][]byte, error) {
	var hdr [storeHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err == nil {
		if err := checkFormat(hdr[:]); errors.Is(err, errFormatVersion) {
			return nil, 0, nil, err
		}
	}
	w, pages, rows, err := openWAL(logPath, func(id pageID, image []byte) error {
		_, err := f.WriteAt(image, int64(id)*PageSize)
		return err
	})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("relstore: recovery replay: %w", err)
	}
	return w, pages, rows, nil
}

// newDB makes the database over p: a new catalog heap, or the one the
// header names and the tables it lists.
func newDB(p *pager, create bool) (*DB, error) {
	bp := newBufferPool(p, DefaultCachePages)
	db := &DB{bp: bp, tables: make(map[string]*Table), wal: p.wal}
	var err error
	if create {
		if db.catalog, err = newHeap(bp); err == nil {
			err = p.setCatalog(db.catalog.first)
		}
	} else if db.catalog, err = openHeap(bp, p.catalogRoot()); err == nil {
		err = db.loadCatalog()
	}
	return db, err
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
	primary, err := newBTree(db.bp)
	if err != nil {
		return nil, err
	}
	meta := tableMeta{Schema: schema, Root: primary.Root()}
	for i := range meta.Schema.Indexes {
		ix, err := newBTree(db.bp)
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
// changed, and under a log the row goes into the commit's rows
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

// GroupCommit makes everything written so far durable with one log write
// and one log fsync, however many records it carries. A commit is logged as
// its rows (wal.appendRows) and its pages stay dirty in the pool. Its pages
// are written — the catalog refreshed and every dirty page, with the pager
// header, logged as one group and written to the data file — only when they
// must leave memory: when the commit leaves more than half the pool dirty,
// when it created a table, or when the log has grown past
// walCheckpointBytes; that last one also checkpoints, fsyncing the data file
// and truncating the log. This is the commit primitive behind relprov's
// Append; when it returns, the committed state survives a crash (Open
// replays and redoes it; an in-flight commit that never returned is
// replayed whole or not at all). A database opened without durable has no
// log and is made durable by Close alone: there GroupCommit does nothing.
//
// An error here fails the store closed (ErrCommitFailed): the commit's rows
// are in its tables but maybe not in its log, and an fsync that failed once
// is not retried. From then on every GroupCommit, read, insert and Size
// returns that error, and Close closes the files without writing to either.
func (db *DB) GroupCommit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.bp.err(); err != nil {
		return err
	}
	if err := db.groupCommitLocked(); err != nil {
		return db.bp.fail(err)
	}
	return nil
}

// groupCommitLocked is GroupCommit's commit. Caller holds db.mu.
func (db *DB) groupCommitLocked() error {
	switch {
	case db.wal == nil:
		return nil
	case db.writePages || db.wal.size()+int64(len(db.rows)) >= walCheckpointBytes:
		return db.writePagesLocked()
	case len(db.rows) == 0:
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
// and every dirty page goes out as one group (bufferPool.flushGroup), and a
// log past walCheckpointBytes is checkpointed. Caller holds db.mu.
func (db *DB) writePagesLocked() error {
	db.rows, db.writePages = db.rows[:0], false
	if err := db.flushCatalogLocked(); err != nil {
		return err
	}
	if err := db.bp.flushGroup(); err != nil {
		return err
	}
	if db.wal != nil && db.wal.size() >= walCheckpointBytes {
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

// Close writes back every page and closes the database: its checkpoint
// fsyncs the data file and then empties the log, if it has one, which it
// closes with the data file. A store that failed closed writes nothing: it
// closes both files as they are and returns its ErrCommitFailed.
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
