// Package relprov implements the provenance store backend on the relational
// engine, as the paper's CPDB stored its Prov table in MySQL: a table
// Prov(Tid, Op, Loc, Src) with primary key {Tid, Loc} (the paper notes "Tid
// and Loc are natural candidates for indexing") and a secondary index on Loc
// for location-oriented queries.
//
// A record is stored once: its primary-tree entry is the key (tid, loc) and
// the value (op, src), and its by_loc entry the key (loc, tid) with no
// value. One entry is at most relstore.MaxEntrySize (1014) bytes, which
// bounds a record: with n the labels of Loc, l their total length and s the
// same sum l+n over Src, it is stored if l + 2n + s ≤ 996 — a Loc of 994
// bytes under one label, or of 83 ten-byte labels, with an empty Src; about
// three times what fitted while by_loc held Loc three times over. A record
// over the bound rejects its whole Append with a
// *provstore.RecordTooLargeError before anything is stored.
package relprov

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"strings"
	"sync"

	"repro/internal/path"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/relstore"
)

// TableName is the name of the provenance relation.
const TableName = "prov"

// Backend is a provstore.Backend persisted in a relstore database. The
// relational engine below it follows a single-writer model, so the backend
// carries its own reader/writer lock: one sharded provenance store built
// from relprov shards gets exactly the paper's "one lock per shard"
// concurrency, with parallel readers within a shard.
type Backend struct {
	mu  sync.RWMutex
	db  *relstore.DB
	tbl *relstore.Table
	wal *relstore.WAL // non-nil after EnableGroupCommit; closed by Close
	// durable makes every Append end in one GroupCommit, instead of
	// durability only at Close. See EnableGroupCommit.
	durable bool
	obs     *provobs.Registry
}

var (
	_ provstore.Backend = (*Backend)(nil)
	_ provobs.Source    = (*Backend)(nil)
)

// Schema returns the provenance table schema.
func Schema() relstore.TableSchema {
	return relstore.TableSchema{
		Name: TableName,
		Columns: []relstore.Column{
			{Name: "tid", Type: relstore.TInt},
			{Name: "loc", Type: relstore.TBytes},
			{Name: "op", Type: relstore.TStr},
			{Name: "src", Type: relstore.TBytes},
		},
		Key: []string{"tid", "loc"},
		Indexes: []relstore.IndexDef{
			{Name: "by_loc", Columns: []string{"loc"}},
		},
	}
}

// Create creates the provenance table in the database and returns the
// backend.
func Create(db *relstore.DB) (*Backend, error) {
	tbl, err := db.CreateTable(Schema())
	if err != nil {
		return nil, err
	}
	return newBackend(db, tbl), nil
}

// Open attaches to an existing provenance table.
func Open(db *relstore.DB) (*Backend, error) {
	tbl, err := db.Table(TableName)
	if err != nil {
		return nil, err
	}
	return newBackend(db, tbl), nil
}

// DB exposes the underlying database (for size accounting).
func (b *Backend) DB() *relstore.DB { return b.db }

// EnableGroupCommit attaches a write-ahead log to the underlying database
// and makes every Append durable before returning — at the cost of one log
// write and one log fsync per call, however many records or whole
// transactions it carries, and nothing of an Append reaches either file
// before that: a crash keeps the call whole or not at all. The data file is
// written at every commit but fsynced only when the log is checkpointed
// (truncated, every few megabytes logged) and at Close, which leaves the
// log empty. This is the group-commit write path of the sharded ingest
// pipeline; without it the store is durable only at Close, as the paper's
// MySQL deployment was at transaction boundaries. The log is closed by
// Close. After a crash, run relstore.RecoverPager before reopening
// (OpenFile does): the data file alone may lack anything committed since
// the last checkpoint.
func (b *Backend) EnableGroupCommit(w *relstore.WAL) {
	b.db.AttachWAL(w)
	b.wal = w
	b.durable = true
}

// newBackend registers the work the engine has done since the store was
// opened, so a daemon's /v1/stats and /metrics show what a request cost below
// the Backend interface (diff two readings). Every series is read from the
// engine's own counters at snapshot time:
//
//	rel.bufpool.hits    page fetches served from the buffer pool
//	rel.bufpool.misses  page fetches that read the file
//	rel.rows_decoded    stored rows decoded
//	rel.wal.fsyncs      fsyncs of the write-ahead log
//	rel.wal.bytes       bytes appended to the write-ahead log
//	rel.data.fsyncs     fsyncs of the data file
//	rel.checkpoints     log truncations (each after one data fsync)
//	rel.data.pages      pages of the data file, its header page included
//
// hits+misses is pages touched. A point read costs about tree-height pages
// and decodes the rows it returns; a reading that grows with the relation
// on a small answer means a scan is hiding in the read path. A durable
// append costs exactly one log fsync and no data fsync: rel.wal.fsyncs
// rises by one per Append, rel.data.fsyncs only with
// rel.checkpoints. rel.data.pages × 4096 is the size of the data file, so
// divided by the records appended it is the store's bytes per record.
func newBackend(db *relstore.DB, tbl *relstore.Table) *Backend {
	b := &Backend{db: db, tbl: tbl, obs: provobs.NewRegistry()}
	for _, m := range []struct {
		name, key, help string
		read            func() int64
	}{
		{"cpdb_rel_bufpool_hits_total", "rel.bufpool.hits", "Page fetches served from the buffer pool.",
			func() int64 { hits, _ := db.CacheStats(); return hits }},
		{"cpdb_rel_bufpool_misses_total", "rel.bufpool.misses", "Page fetches that read the file.",
			func() int64 { _, misses := db.CacheStats(); return misses }},
		{"cpdb_rel_rows_decoded_total", "rel.rows_decoded", "Stored rows decoded.", tbl.RowsDecoded},
		{"cpdb_rel_wal_fsyncs_total", "rel.wal.fsyncs", "Fsyncs of the write-ahead log.",
			func() int64 { return db.IOStats().WALFsyncs }},
		{"cpdb_rel_wal_bytes_total", "rel.wal.bytes", "Bytes appended to the write-ahead log.",
			func() int64 { return db.IOStats().WALBytes }},
		{"cpdb_rel_data_fsyncs_total", "rel.data.fsyncs", "Fsyncs of the data file.",
			func() int64 { return db.IOStats().DataFsyncs }},
		{"cpdb_rel_checkpoints_total", "rel.checkpoints", "Log truncations (each after one data fsync).",
			func() int64 { return db.IOStats().Checkpoints }},
	} {
		b.obs.CounterFunc(m.name, m.help, m.read, provobs.WithStatKey(m.key))
	}
	b.obs.GaugeFunc("cpdb_rel_data_pages", "Pages of the data file, its header page included.",
		db.NumPages, provobs.WithStatKey("rel.data.pages"))
	return b
}

// ObsRegistries implements provobs.Source.
func (b *Backend) ObsRegistries() []*provobs.Registry { return []*provobs.Registry{b.obs} }

// Close releases the underlying database — whose Close syncs the data file
// and then empties the log, so a cleanly closed store carries no log to
// replay — and, if group commit was enabled, closes the log file.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.db.Close()
	if b.wal != nil {
		if werr := b.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

func toRow(r provstore.Record) relstore.Row {
	return relstore.Row{
		r.Tid,
		r.Loc.AppendBinary(nil),
		r.Op.String(),
		r.Src.AppendBinary(nil),
	}
}

// decodeRow decodes a stored row — its primary-tree entry, as relstore lays
// Schema out: the key is tid (8 bytes) then loc in the key codec's escaped,
// terminated form; the value is op and src, each behind a uvarint length —
// straight into a record, with no relstore.Row of boxed values in between.
// It keeps none of key or val, so it runs inside a scan callback on the
// leaf's own bytes: loc and src are copied once, into one string, and both
// paths' labels are substrings of it. What comes out of the key is checked
// like what comes out of the value: a key or a path that is not one is an
// error.
func decodeRow(key, val []byte) (provstore.Record, error) {
	var rec provstore.Record
	tid, rest, err := relstore.DecodeKeyInt(key)
	if err != nil {
		return rec, errors.New("relprov: bad tid in key")
	}
	rec.Tid = tid
	var locBuf [128]byte
	loc, rest, err := relstore.DecodeKeyBytes(locBuf[:0], rest)
	if err != nil {
		return rec, fmt.Errorf("relprov: bad loc in key: %w", err)
	}
	if len(rest) != 0 {
		return rec, fmt.Errorf("relprov: %d trailing bytes after key", len(rest))
	}
	if len(val) < 2 || val[0] != 1 {
		return rec, fmt.Errorf("relprov: bad op %q", val)
	}
	rec.Op = provstore.OpKind(val[1])
	srcLen, n := binary.Uvarint(val[2:])
	if n <= 0 || uint64(len(val)-2-n) != srcLen {
		return rec, errors.New("relprov: bad length of src")
	}
	var row strings.Builder
	row.Grow(len(loc) + int(srcLen))
	row.Write(loc)
	row.Write(val[2+n:])
	paths := row.String()
	if rec.Loc, err = path.DecodeBinaryString(paths[:len(loc)]); err != nil {
		return rec, fmt.Errorf("relprov: bad loc: %w", err)
	}
	if rec.Src, err = path.DecodeBinaryString(paths[len(loc):]); err != nil {
		return rec, fmt.Errorf("relprov: bad src: %w", err)
	}
	return rec, rec.Validate()
}

// Append implements provstore.Backend: the records — one transaction's, or
// the several committed transactions a batching layer accumulated — are
// inserted in the order given and then made durable together with a single
// GroupCommit (one WAL write and fsync). The whole batch is validated before
// any row is inserted, so a duplicate {Tid, Loc} anywhere in it or against
// the table, or a record too large to store, aborts it wholesale.
func (b *Backend) Append(ctx context.Context, recs []provstore.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	if err := provstore.ValidateBatch(recs); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	rows := make([]relstore.Row, len(recs))
	for i, r := range recs {
		rows[i] = toRow(r)
		pk, err := b.tbl.Key(rows[i])
		if errors.Is(err, relstore.ErrKeyTooBig) {
			return &provstore.RecordTooLargeError{Tid: r.Tid, Loc: r.Loc, Limit: relstore.MaxEntrySize}
		}
		if err != nil {
			return err
		}
		// The probe for a stored duplicate is key-only.
		stored, err := b.tbl.Has(pk)
		if err != nil {
			return err
		}
		if stored {
			return &provstore.DupKeyError{Tid: r.Tid, Loc: r.Loc}
		}
	}
	for i, row := range rows {
		if err := b.tbl.Insert(row); err != nil {
			// Should be unreachable after pre-validation; surface with
			// context if the store disagrees.
			return fmt.Errorf("relprov: appending record %d: %w", i, err)
		}
	}
	if b.durable {
		return b.db.GroupCommit()
	}
	return nil
}

// Lookup implements provstore.Backend.
func (b *Backend) Lookup(ctx context.Context, tid int64, loc path.Path) (provstore.Record, bool, error) {
	if err := ctx.Err(); err != nil {
		return provstore.Record{}, false, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.lookupLocked(tid, loc)
}

func (b *Backend) lookupLocked(tid int64, loc path.Path) (provstore.Record, bool, error) {
	pk, err := b.tbl.KeyPrefix(tid, loc.AppendBinary(nil))
	if err != nil {
		return provstore.Record{}, false, err
	}
	var rec provstore.Record
	var derr error
	found, err := b.tbl.View(pk, func(val []byte) { rec, derr = decodeRow(pk, val) })
	if err == nil {
		err = derr
	}
	if err != nil || !found {
		return provstore.Record{}, false, err
	}
	return rec, true, nil
}

// NearestAncestor implements provstore.Backend: it probes the ancestors of
// loc from deepest to shallowest within transaction tid. Like the stored
// procedure of the paper's implementation, this is one logical round trip.
func (b *Backend) NearestAncestor(ctx context.Context, tid int64, loc path.Path) (provstore.Record, bool, error) {
	if err := ctx.Err(); err != nil {
		return provstore.Record{}, false, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	anc := loc.Ancestors()
	for i := len(anc) - 1; i >= 0; i-- {
		rec, ok, err := b.lookupLocked(tid, anc[i])
		if err != nil || ok {
			return rec, ok, err
		}
	}
	return provstore.Record{}, false, nil
}

// --- cursors ----------------------------------------------------------------
//
// Scans stream off the pager through the one cursor loop,
// provstore.ScanStretch: the read lock is held only while visit gathers one
// window of rows off the B-tree, never while the consumer runs — a consumer
// may issue point reads (or even appends) from inside its own scan loop, and
// a slow one never blocks writers, where holding the RLock across yields
// would deadlock against Go's writer-preferring RWMutex. Records are immutable
// and append-only, so a cursor yields every row present when it was opened,
// once, in key order, and a row appended since iff it sorts after its position.

// The most rows a cursor gathers under one hold of the read lock.
const windowMax = 256

// visit is the store's provstore.Visit: one walk of at most want rows, each
// decoded where it lies. Every row walked counts toward want and is the place
// to resume after, selected or not.
func (b *Backend) visit(spec provstore.ScanSpec, buf []provstore.Record, want int) ([]provstore.Record, provstore.Record, bool, error) {
	var last provstore.Record
	byLoc, from, prefix, err := b.walk(spec)
	if err != nil {
		return buf, last, false, err
	}
	var derr error
	walked := 0
	row := func(pk, val []byte) bool {
		if last, derr = decodeRow(pk, val); derr != nil {
			return false
		}
		// The byte prefix of a subtree is re-checked label-wise.
		if spec.Kind != provstore.KindPrefix || spec.Match(last) {
			buf = append(buf, last)
		}
		walked++
		return walked < want
	}
	// Either walk hands over, in key order and as stored, the rows whose key
	// in that tree is ≥ from and begins with prefix; the first key outside the
	// prefix ends it, its row not fetched.
	b.mu.RLock()
	if byLoc {
		err = b.tbl.ScanIndexEncodedFrom("by_loc", from, prefix, func(_, pk, val []byte) bool { return row(pk, val) })
	} else {
		err = b.tbl.ScanEncodedFrom(from, prefix, row)
	}
	b.mu.RUnlock()
	if derr != nil {
		err = derr
	}
	return buf, last, walked >= want, err
}

// Scan implements provstore.Backend: every kind is a prefix walk of one of
// the two trees. The primary key is {tid, loc}, so the pager's own order is
// the (Tid, Loc) order; a by_loc key is the terminated encoding of loc
// followed by tid, so its order is (Loc, Tid), the key prefix
// alone selects exactly one loc (a probe that matches nothing ends on its
// first index key), and — the path encoding being prefix-preserving —
// dropping the terminator selects the subtree under it. A resume key is a
// seek straight to its successor (the key codec is order-preserving, so
// key‖0x00 is the next possible key): one B-tree descent, not a walk over
// what came before. A WithAncestors scan gathers one Tid-ordered by_loc walk
// per prefix of the location — server-side, one logical round trip.
func (b *Backend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	if spec.Kind == provstore.KindAncestors {
		return provstore.ScanAncestors(ctx, spec, func(p provstore.ScanSpec, buf []provstore.Record) ([]provstore.Record, error) {
			return provstore.AppendScan(buf, b.Scan(ctx, p))
		}, provstore.Itself)
	}
	return provstore.ScanStretch(ctx, spec, windowMax, b.visit, provstore.Itself)
}

// walk resolves a scan of one stretch to the tree walk that serves it: which
// tree — by_loc, or the primary — the key prefix that bounds the stretch, and
// the key to seek to: the prefix itself, or the successor of the resume key
// when that lies further on.
func (b *Backend) walk(spec provstore.ScanSpec) (byLoc bool, from, prefix []byte, err error) {
	byLoc = spec.Kind == provstore.KindLoc || spec.Kind == provstore.KindPrefix
	switch {
	case spec.Kind == provstore.KindTid:
		prefix, err = b.tbl.KeyPrefix(spec.Tid)
	case byLoc:
		prefix, err = b.tbl.IndexPrefix("by_loc", spec.Loc.AppendBinary(nil))
		if err == nil && spec.Kind == provstore.KindPrefix {
			prefix = prefix[:len(prefix)-1] // without the 0x00 terminator descendants (longer keys) match too
		}
	}
	after, resumed := spec.ResumeKey()
	if err != nil || !resumed {
		return byLoc, prefix, prefix, err
	}
	var key []byte
	if loc := after.Loc.AppendBinary(nil); byLoc {
		key, err = b.tbl.IndexPrefix("by_loc", loc, after.Tid)
	} else {
		key, err = b.tbl.KeyPrefix(after.Tid, loc)
	}
	if key = append(key, 0); bytes.Compare(key, prefix) < 0 {
		key = prefix
	}
	return byLoc, key, prefix, err
}

// Stat implements provstore.Backend. MaxTid is the tid column of the last
// primary key, one rightmost descent of the tree (O(height) pages, no row
// decoded); the other two are maintained counters. Bytes is
// relstore.Table.ByteSize: each record's key and value as encoded, Tid and
// Loc counted once and front coding not at all.
func (b *Backend) Stat(ctx context.Context) (provstore.Stat, error) {
	if err := ctx.Err(); err != nil {
		return provstore.Stat{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	st := provstore.Stat{Count: int(b.tbl.RowCount()), Bytes: b.tbl.ByteSize()}
	key, ok, err := b.tbl.LastKey()
	if err != nil || !ok {
		return st, err
	}
	if st.MaxTid, _, err = relstore.DecodeKeyInt(key); err != nil {
		return st, fmt.Errorf("relprov: bad primary key: %w", err)
	}
	return st, nil
}
