// Package relprov implements the provenance store backend on the relational
// engine, as the paper's CPDB stored its Prov table in MySQL: a table
// Prov(Tid, Op, Loc, Src) with primary key {Tid, Loc} (the paper notes "Tid
// and Loc are natural candidates for indexing") and a secondary index on Loc
// for location-oriented queries.
//
// A record is stored in two entries of the same bytes: its primary-tree
// entry is the key (tid, loc) and the value (op, src), and its by_loc entry
// the key (loc, tid) and the same value, so a read by location never
// descends the primary tree. A tid's key field is one header byte and the
// tid's significant bytes: t = 3 bytes for a tid from 256 to 65 535, at most
// 9. A loc's key field is its path encoding and one 0x00 (relstore.TPath),
// so reading it back is one copy. One entry is at most
// relstore.MaxEntrySize (1014) bytes, which bounds a record: with n the
// labels of Loc, l their total length and s the same sum l+n over Src, it is
// stored if l + n + s ≤ 1004 − t — 1001 at a tid of a few thousand, 995 for
// any tid; a Loc of 994 bytes under one label, or of 90 ten-byte labels,
// with an empty Src. A record over the bound rejects its whole Append with a
// *provstore.RecordTooLargeError before anything is stored.
//
// A read decodes the rows of one lock window — up to 256 — eight at a time:
// the paths of eight rows are substrings of one string, so eight rows cost
// one allocation. A record a caller keeps therefore keeps its slab's string
// alive, the paths of at most eight rows; copy a record's paths (path.Parse
// of their String) to keep them alone.
package relprov

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
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
	obs *provobs.Registry
	// Every cursor's window buffer, and every read's decoder, is pooled.
	windows  *provstore.Windows[provstore.Record]
	decoders provstore.Idle[*decoder]
}

var (
	_ provstore.Backend = (*Backend)(nil)
	_ provobs.Source    = (*Backend)(nil)
)

// schema returns the provenance table schema.
func schema() relstore.TableSchema {
	return relstore.TableSchema{
		Name: TableName,
		Columns: []relstore.Column{
			{Name: "tid", Type: relstore.TInt},
			{Name: "loc", Type: relstore.TPath},
			{Name: "op", Type: relstore.TStr},
			{Name: "src", Type: relstore.TBytes},
		},
		Key: []string{"tid", "loc"},
		Indexes: []relstore.IndexDef{
			{Name: "by_loc", Columns: []string{"loc"}},
		},
	}
}

// DB exposes the underlying database (for size accounting).
func (b *Backend) DB() *relstore.DB { return b.db }

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
	b := &Backend{
		db: db, tbl: tbl, obs: provobs.NewRegistry(),
		windows:  provstore.NewWindows[provstore.Record](windowMax),
		decoders: provstore.NewIdle[*decoder](),
	}
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

// Close releases the underlying database, whose Close syncs the data file
// and then empties and closes the log of a durable store, so a cleanly
// closed store carries no log to replay.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.db.Close()
}

// toRows returns the rows of recs: their values in one backing array, the
// encodings of their paths in one buffer.
func toRows(recs []provstore.Record) []relstore.Row {
	n := 0
	for _, r := range recs {
		n += r.Loc.BinaryLen() + r.Src.BinaryLen()
	}
	enc := make([]byte, 0, n)
	vals := make(relstore.Row, 0, 4*len(recs))
	rows := make([]relstore.Row, len(recs))
	for i, r := range recs {
		loc := len(enc)
		enc = r.Loc.AppendBinary(enc)
		src := len(enc)
		enc = r.Src.AppendBinary(enc)
		vals = append(vals, r.Tid, enc[loc:src:src], r.Op.String(), enc[src:len(enc):len(enc)])
		rows[i] = vals[4*i : 4*i+4 : 4*i+4]
	}
	return rows
}

// primaryKey appends to buf the primary key of the record (tid, loc), as
// relstore lays schema out: tid in the key codec's int form (a header byte
// and its significant bytes), then loc's binary encoding as a path field (its
// bytes and one 0x00). A by_loc key is the same two fields the other way
// round.
func primaryKey(buf []byte, tid int64, loc path.Path) []byte {
	var enc [128]byte
	return relstore.AppendKeyPath(relstore.AppendKeyInt(buf, tid), loc.AppendBinary(enc[:0]))
}

// A decoder decodes the rows one cursor window walks in two passes. add runs
// on each row where it lies in its leaf, under the read lock: it copies the
// row's loc and src encodings into raw, back to back — each with one append,
// a stored loc being its path encoding — and checks everything but the
// paths. decode, which needs no lock, then takes the rows slabRows at a
// time: one string of their encodings, every record's Loc and Src a
// substring of it (a path is its encoding, so decoding one only checks it).
// So a window of n rows costs ⌈n/slabRows⌉ allocations, and a record a
// caller keeps keeps slabRows rows' paths alive. Decoders are pooled per
// store.
type decoder struct {
	raw  []byte
	rows []rawRow
}

// The most rows whose paths share one string. A string of a whole 256-row
// window would cost one allocation a window, but a caller that keeps a few
// records of large scans — the benchmark's query workload keeps its
// question locations and reference answers — would keep their windows
// alive: 17 % more live heap there. Eight rows cost 0.125 allocations a row
// and 2 % of live heap.
const slabRows = 8

// A rawRow is what add kept of a row: its tid and op, where its paths end in
// raw — loc's encoding runs from the end of the previous row's src to loc,
// src's from loc to src.
type rawRow struct {
	tid      int64
	op       provstore.OpKind
	loc, src int
}

// add takes the stored row key→val — its primary-tree entry, whose key is
// tid then loc, or with byLoc its by_loc entry, whose key is loc then tid;
// either value is op and then src behind a uvarint length — keeping none of
// either. A key or value that is not one is an error.
func (d *decoder) add(key, val []byte, byLoc bool) error {
	var (
		tid int64
		err error
	)
	rest := key
	if !byLoc {
		if tid, rest, err = relstore.DecodeKeyInt(rest); err != nil {
			return errors.New("relprov: bad tid in key")
		}
	}
	enc, rest, err := relstore.DecodeKeyPath(rest)
	if err != nil {
		return fmt.Errorf("relprov: bad loc in key: %w", err)
	}
	if byLoc {
		if tid, rest, err = relstore.DecodeKeyInt(rest); err != nil {
			return errors.New("relprov: bad tid in key")
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("relprov: %d trailing bytes after key", len(rest))
	}
	if len(val) < 2 || val[0] != 1 {
		return fmt.Errorf("relprov: bad op %q", val)
	}
	srcLen, n := binary.Uvarint(val[2:])
	if n <= 0 || uint64(len(val)-2-n) != srcLen {
		return errors.New("relprov: bad length of src")
	}
	d.raw = append(d.raw, enc...)
	loc := len(d.raw)
	d.raw = append(d.raw, val[2+n:]...)
	d.rows = append(d.rows, rawRow{tid: tid, op: provstore.OpKind(val[1]), loc: loc, src: len(d.raw)})
	return nil
}

// decode appends to buf the records of the rows added, those match selects
// (every one if match is nil), and returns the last record decoded, selected
// or not. A path that is not one, or a record that is not valid, ends it
// with an error: buf then holds the records of the rows before it.
func (d *decoder) decode(buf []provstore.Record, match func(provstore.Record) bool) ([]provstore.Record, provstore.Record, error) {
	var last provstore.Record
	start := 0 // of the next row's loc in raw
	for g := 0; g < len(d.rows); g += slabRows {
		rows := d.rows[g:min(g+slabRows, len(d.rows))]
		base := start // of s in raw
		s := string(d.raw[base:rows[len(rows)-1].src])
		for _, r := range rows {
			rec := provstore.Record{Tid: r.tid, Op: r.op}
			var err error
			if rec.Loc, err = path.DecodeBinaryString(s[start-base : r.loc-base]); err != nil {
				return buf, last, fmt.Errorf("relprov: bad loc: %w", err)
			}
			if rec.Src, err = path.DecodeBinaryString(s[r.loc-base : r.src-base]); err != nil {
				return buf, last, fmt.Errorf("relprov: bad src: %w", err)
			}
			if err := rec.Validate(); err != nil {
				return buf, last, err
			}
			if last, start = rec, r.src; match == nil || match(rec) {
				buf = append(buf, rec)
			}
		}
	}
	return buf, last, nil
}

// getDecoder takes an idle decoder of the store's, or makes one; putDecoder
// gives it back emptied.
func (b *Backend) getDecoder() *decoder {
	if d := b.decoders.Get(); d != nil {
		return d
	}
	return new(decoder)
}

func (b *Backend) putDecoder(d *decoder) {
	d.raw, d.rows = d.raw[:0], d.rows[:0]
	b.decoders.Put(d)
}

// Append implements provstore.Backend: the records — one transaction's, or
// the several committed transactions a batching layer accumulated — are
// inserted in the order given and then committed together with a single
// GroupCommit: in a durable store one log write and fsync, before which
// nothing of the batch reaches either file, so a crash keeps it whole or not
// at all; in any other, nothing until Close. The whole batch is validated before
// any row is inserted, so a duplicate {Tid, Loc} anywhere in it or against
// the table, or a record too large to store, aborts it wholesale; each row is
// encoded once, for the check and the insert. A durable commit that fails
// fails the store closed: from then on Append, Scan and Stat return its
// relstore.ErrCommitFailed, and a reopen holds the commits acknowledged
// before it.
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
	rows := toRows(recs)
	ents := make([]relstore.EncodedRow, len(recs))
	for i, r := range recs {
		e, err := b.tbl.Key(rows[i])
		if err != nil {
			// The records are checked in order: a stored duplicate before
			// this one is the reason the batch is refused.
			if derr := b.refuseStored(recs[:i], ents[:i]); derr != nil {
				return derr
			}
			if errors.Is(err, relstore.ErrKeyTooBig) {
				return &provstore.RecordTooLargeError{Tid: r.Tid, Loc: r.Loc, Limit: relstore.MaxEntrySize}
			}
			return err
		}
		ents[i] = e
	}
	if err := b.refuseStored(recs, ents); err != nil {
		return err
	}
	for i, e := range ents {
		if err := b.tbl.InsertEncoded(e); err != nil {
			// Should be unreachable after pre-validation; surface with
			// context if the store disagrees.
			return fmt.Errorf("relprov: appending record %d: %w", i, err)
		}
	}
	return b.db.GroupCommit()
}

// refuseStored returns a *provstore.DupKeyError for the first record whose
// key is stored already, nil if none is. A key that sorts after the table's
// last is not stored, which one rightmost descent per batch shows — a writer
// appending above the store's maximum, the common case, probes nothing
// else; any other key is probed (keys only), as a tid lane appending below
// another's maximum needs. Duplicates within the batch are ValidateBatch's.
func (b *Backend) refuseStored(recs []provstore.Record, ents []relstore.EncodedRow) error {
	if len(ents) == 0 {
		return nil
	}
	last, ok, err := b.tbl.LastKey()
	if err != nil || !ok {
		return err
	}
	for i, e := range ents {
		if bytes.Compare(e.Key(), last) > 0 {
			continue
		}
		stored, err := b.tbl.Has(e.Key())
		if err != nil {
			return err
		}
		if stored {
			return &provstore.DupKeyError{Tid: recs[i].Tid, Loc: recs[i].Loc}
		}
	}
	return nil
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
// copied out of its leaf under the read lock and the window decoded after it
// (see decoder). Every row kept counts toward want and is the place to
// resume after, selected or not; a row past the bound is not kept.
func (b *Backend) visit(spec provstore.ScanSpec, buf []provstore.Record, want int) ([]provstore.Record, provstore.Record, bool, error) {
	var keys [512]byte
	byLoc, from, prefix := walk(spec, keys[:0])
	d := b.getDecoder()
	defer b.putDecoder(d)
	var derr error
	row := func(key, val []byte) bool {
		n, end := len(d.rows), len(d.raw)
		if derr = d.add(key, val, byLoc); derr != nil {
			return false
		}
		if spec.Beyond(d.rows[n].tid) { // not decoded: the end of the walk, or in a subtree a row passed over
			d.rows, d.raw = d.rows[:n], d.raw[:end]
			return spec.Kind == provstore.KindPrefix
		}
		return len(d.rows) < want
	}
	// Either walk hands over, in key order and as stored, the rows whose key
	// in that tree is ≥ from and begins with prefix; the first key outside the
	// prefix ends it, its row not decoded, and so does the first row past the
	// bound but in a subtree, whose later locations start their tids over. A
	// by_loc entry carries its row.
	var err error
	b.mu.RLock()
	if byLoc {
		err = b.tbl.ScanIndexEncodedFrom("by_loc", from, prefix, row)
	} else {
		err = b.tbl.ScanEncodedFrom(from, prefix, row)
	}
	b.mu.RUnlock()
	if derr != nil {
		err = derr
	}
	// The byte prefix of a subtree is re-checked label-wise.
	var match func(provstore.Record) bool
	if spec.Kind == provstore.KindPrefix {
		match = spec.Match
	}
	buf, last, ferr := d.decode(buf, match)
	if ferr != nil { // a row before the one that ended the walk
		err = ferr
	}
	return buf, last, len(d.rows) >= want, err
}

// Scan implements provstore.Backend: every kind is a prefix walk of one of
// the two trees. The primary key is {tid, loc}, so the pager's own order is
// the (Tid, Loc) order; a by_loc key is the encoding of loc and a closing
// 0x00 followed by tid, so its order is (Loc, Tid), the key prefix
// alone selects exactly one loc (a probe that matches nothing ends on its
// first index key), and — the path encoding being prefix-preserving — the
// encoding without the closing 0x00 selects the subtree under it. A resume
// key is a seek straight to its successor (the key codec is order-preserving, so
// key‖0x00 is the next possible key): one B-tree descent, not a walk over
// what came before. A WithAncestors scan gathers one Tid-ordered by_loc walk
// per prefix of the location — server-side, one logical round trip — each
// visited straight into the gather: windowMax rows under one hold of the
// read lock, the next window resumed after the last, and no cursor.
func (b *Backend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	if spec.Kind == provstore.KindAncestors {
		return provstore.ScanAncestors(ctx, spec, func(p provstore.ScanSpec, buf []provstore.Record) ([]provstore.Record, error) {
			for {
				window, last, more, err := b.visit(p, buf, windowMax)
				if buf = window; err != nil || !more {
					return buf, err
				}
				if err := ctx.Err(); err != nil {
					return buf, err
				}
				p = p.After(last.Tid, last.Loc)
			}
		}, provstore.Itself)
	}
	return provstore.ScanStretch(ctx, spec, b.windows, b.visit, provstore.Itself)
}

// walk resolves a scan of one stretch to the tree walk that serves it: which
// tree — by_loc, or the primary — the key prefix that bounds the stretch, and
// the key to seek to: the prefix itself, or the successor of the resume key
// when that lies further on. Both keys are appended to buf, as relstore lays
// the two trees' keys out (see primaryKey; a by_loc key is loc, then tid).
func walk(spec provstore.ScanSpec, buf []byte) (byLoc bool, from, prefix []byte) {
	var enc [128]byte
	byLoc = spec.Kind == provstore.KindLoc || spec.Kind == provstore.KindPrefix
	switch {
	case spec.Kind == provstore.KindAll:
		prefix = buf[:0]
	case spec.Kind == provstore.KindTid:
		prefix = relstore.AppendKeyInt(buf, spec.Tid)
	case byLoc:
		prefix = relstore.AppendKeyPath(buf, spec.Loc.AppendBinary(enc[:0]))
		if spec.Kind == provstore.KindPrefix {
			prefix = prefix[:len(prefix)-1] // the encoding alone: descendants (longer keys) match too
		}
	}
	after, resumed := spec.ResumeKey()
	if !resumed {
		return byLoc, prefix, prefix
	}
	key := prefix[len(prefix):] // the rest of buf
	if byLoc {
		key = relstore.AppendKeyInt(relstore.AppendKeyPath(key, after.Loc.AppendBinary(enc[:0])), after.Tid)
	} else {
		key = primaryKey(key, after.Tid, after.Loc)
	}
	if key = append(key, 0); bytes.Compare(key, prefix) < 0 {
		key = prefix
	}
	return byLoc, key, prefix
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
	key, ok, err := b.tbl.LastKey()
	if err != nil {
		return provstore.Stat{}, err
	}
	st := provstore.Stat{Count: int(b.tbl.RowCount()), Bytes: b.tbl.ByteSize()}
	if !ok {
		return st, nil
	}
	if st.MaxTid, _, err = relstore.DecodeKeyInt(key); err != nil {
		return st, fmt.Errorf("relprov: bad primary key: %w", err)
	}
	return st, nil
}
