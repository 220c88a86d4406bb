package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// A WAL is a write-ahead log of commits. A commit is logged one of two
// ways. A rows record holds the rows it stored, as encoded keys and values:
// its pages stay dirty in the buffer pool, and after a crash recovery redoes
// the rows through Table.Insert. A page group holds full page images under
// the pager header they were committed with; it is written when pages must
// leave memory (DB.GroupCommit has the policy), and only its pages ever
// reach the data file, after the log has them, so a crash between or during
// data-file writes (torn or missing pages) is repairable by replay. A group
// holds every page dirtied since the group before it, so it makes every rows
// record before it redundant. The log is truncated at checkpoints, once the
// data file has been fsynced.
//
// The paper's related work (§5) discusses transaction logging as a
// neighbouring mechanism and argues provenance must not be bolted onto it:
// "such application-level code and data has no place in a system-critical
// mechanism". This WAL is exactly that system-critical mechanism — it knows
// nothing about provenance; provenance records are ordinary table rows
// above it.
//
// Three record kinds share one layout:
//
//	magic   uint32  walMagic             walGroupMagic                   walRowsMagic
//	lsn     uint64
//	pageID  uint32  the image's page     0                               the body's length
//	crc32   uint32  of the body
//	body            PageSize-byte image  pager header ‖ uint32 page count rows
//
// A group record opens a page group (appendGroup): the pager header as of
// the commit and the number of page records that follow and belong to it.
// A group missing any of its records is not replayed at all, and a page
// record outside a group ends the usable log like any other damage. A rows
// record (appendRows) stands alone at top level; its body is each row in
// turn as three uvarint-length-prefixed byte strings: the table's name, the
// row's encoded primary key and its encoded value.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	lsn  uint64
	size int64  // bytes in the log; the next append goes here
	buf  []byte // encode buffer, reused from append to append
	// fsyncs and bytes count log fsyncs and bytes appended since open.
	fsyncs, bytes int64
}

const (
	walMagic      uint32 = 0xCA11B0C5
	walGroupMagic uint32 = 0xCA11B0C6
	walRowsMagic  uint32 = 0xCA11B0C7

	walHeaderSize = 4 + 8 + 4 + 4
	walPageSize   = walHeaderSize + PageSize
	walGroupSize  = walHeaderSize + storeHeaderSize + 4
	// walKeepBuf caps the encode buffer kept between appends; a larger
	// group (a bulk load) is encoded in a buffer of its own.
	walKeepBuf = 64 * walPageSize
)

// errTornLog reports a truncated or corrupt trailing log record, which
// replay treats as the end of the usable log.
var errTornLog = errors.New("relstore: torn write-ahead log record")

// CreateWAL creates (truncating) a log file.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &WAL{f: f, path: path}, nil
}

// OpenWAL opens an existing log file (creating an empty one if absent),
// positioning appends after the last intact record.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f, path: path}
	// Find the end of the intact prefix and the newest LSN.
	end, maxLSN, err := w.scan(math.MaxInt64, nil)
	if err != nil && !errors.Is(err, errTornLog) {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	w.size, w.lsn = end, maxLSN
	return w, nil
}

// appendGroup logs a commit — the pager header and a batch of page images —
// with one write and one fsync: however many records (or whole
// transactions) dirtied these pages, that is all the log pays.
func (w *WAL) appendGroup(pgs []*page, header [storeHeaderSize]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(pgs)))
	buf := w.appendRecord(w.buf[:0], walGroupMagic, 0, header[:], count[:])
	for _, pg := range pgs {
		pg.seal()
		buf = w.appendRecord(buf, walMagic, pg.ID, pg.buf[:])
	}
	return w.commit(buf)
}

// appendRows logs a commit as the rows it stored — body is the rows record's
// body, see WAL — with one write and one fsync.
func (w *WAL) appendRows(body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commit(w.appendRecord(w.buf[:0], walRowsMagic, PageID(len(body)), body))
}

// commit appends the encoded records of one commit to the log with one write
// and one fsync, keeping buf to encode the next commit in unless it grew past
// walKeepBuf. Caller holds mu.
func (w *WAL) commit(buf []byte) error {
	if cap(buf) <= walKeepBuf {
		w.buf = buf[:0]
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return err
	}
	w.size += int64(len(buf))
	w.bytes += int64(len(buf))
	w.fsyncs++
	return w.f.Sync()
}

// appendRecord encodes one record, its body given in pieces, under the next
// LSN. The checksum is taken over the encoded copy, so no piece escapes.
func (w *WAL) appendRecord(buf []byte, magic uint32, id PageID, body ...[]byte) []byte {
	w.lsn++
	buf = binary.BigEndian.AppendUint32(buf, magic)
	buf = binary.BigEndian.AppendUint64(buf, w.lsn)
	buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	sum := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	for _, b := range body {
		buf = append(buf, b...)
	}
	binary.BigEndian.PutUint32(buf[sum:], crc32.ChecksumIEEE(buf[sum+4:]))
	return buf
}

// scan reads the first limit bytes of the log, calling visit (if non-nil)
// for every intact record: a page image with its page, a group's pager
// header as page 0 and a rows record's body with magic walRowsMagic. body is
// valid until visit returns. scan returns the offset after the last whole
// record or group and the newest LSN seen. A torn tail, which includes a
// group missing any of its records and a page record no group counts, yields
// errTornLog with the prefix results intact. Records are visited as they are
// read, so a caller that must not see part of a group passes a limit some
// earlier scan returned.
func (w *WAL) scan(limit int64, visit func(magic uint32, id PageID, body []byte) error) (end int64, maxLSN uint64, err error) {
	if fi, err := w.f.Stat(); err != nil {
		return 0, 0, err
	} else if fi.Size() < limit {
		limit = fi.Size()
	}
	var (
		r       = bufio.NewReaderSize(io.NewSectionReader(w.f, 0, limit), 1<<16)
		prefix  [walHeaderSize]byte
		body    = make([]byte, PageSize)
		pos     int64
		pending uint32 // page records the open group still lacks
	)
	for {
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			if errors.Is(err, io.EOF) && pending == 0 {
				return end, maxLSN, nil
			}
			return end, maxLSN, errTornLog
		}
		magic, id, b := binary.BigEndian.Uint32(prefix[0:]), PageID(binary.BigEndian.Uint32(prefix[12:])), body[:PageSize]
		switch {
		case magic == walMagic && pending > 0:
		case magic == walGroupMagic && pending == 0:
			b = body[:storeHeaderSize+4]
		case magic == walRowsMagic && pending == 0 && int64(id) <= limit-pos-walHeaderSize:
			if int(id) > cap(body) {
				body = make([]byte, id)
			}
			b = body[:id]
		default:
			return end, maxLSN, errTornLog
		}
		if _, err := io.ReadFull(r, b); err != nil || crc32.ChecksumIEEE(b) != binary.BigEndian.Uint32(prefix[16:]) {
			return end, maxLSN, errTornLog
		}
		maxLSN = max(maxLSN, binary.BigEndian.Uint64(prefix[4:]))
		pos += walHeaderSize + int64(len(b))
		switch magic {
		case walGroupMagic:
			pending, b = binary.BigEndian.Uint32(b[storeHeaderSize:]), b[:storeHeaderSize]
		case walMagic:
			pending--
		}
		if visit != nil {
			if err := visit(magic, id, b); err != nil {
				return end, maxLSN, err
			}
		}
		if pending == 0 {
			end = pos
		}
	}
}

// replay applies every logged page image in order, and every group's pager
// header as a storeHeaderSize-byte image of page 0. It reads the extent
// OpenWAL found intact plus what has been appended since, so it never
// applies part of a group. It returns the number of page images applied
// and, in log order, the bodies of the rows records logged after the last
// group — the commits no page image holds, which RecoverPager redoes.
func (w *WAL) replay(apply func(id PageID, image []byte) error) (n int, rows [][]byte, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, _, err = w.scan(w.size, func(magic uint32, id PageID, body []byte) error {
		switch magic {
		case walRowsMagic:
			rows = append(rows, bytes.Clone(body))
			return nil
		case walGroupMagic:
			rows = rows[:0]
		default:
			n++
		}
		return apply(id, body)
	})
	if err != nil && !errors.Is(err, errTornLog) {
		return n, rows, err
	}
	return n, rows, nil
}

// Truncate empties the log (a checkpoint: every logged write is in the
// fsynced data file). The truncation is not itself fsynced — the next
// group's fsync covers it; a crash before that may bring the old log back,
// and replaying it over a data file that holds all of it changes nothing.
func (w *WAL) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.size = 0
	return nil
}

// Size returns the log size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns the log fsyncs and bytes appended since the log was opened.
func (w *WAL) Stats() (fsyncs, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncs, w.bytes
}

// Close closes the log file.
func (w *WAL) Close() error {
	return w.f.Close()
}

// --- pager integration ------------------------------------------------------

// AttachWAL makes every subsequent page group reach the log before the data
// file (write-ahead), and a buffer pool over this pager hold its dirty pages
// back until they commit as one.
func (p *Pager) AttachWAL(w *WAL) {
	p.mu.Lock()
	p.wal = w
	p.mu.Unlock()
}

// hasWAL reports whether a write-ahead log is attached.
func (p *Pager) hasWAL() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal != nil
}

// walCheckpointBytes bounds the attached log's growth: a commit that finds
// the log past this size writes its pages as a group, fsyncs the data file
// (making every logged record redundant) and truncates the log.
const walCheckpointBytes = 4 << 20

// writeGroup seals and persists a batch of pages as one group commit. With
// a log attached, the images and the pager header reach the log with one
// write and one fsync (appendGroup) — the group is durable from then on —
// and are then written to the data file, which is not fsynced: until the
// next checkpoint the log is what a crash recovers the group from. With no
// log attached these are plain writes, a single evicted page included; the
// caller is then responsible for syncing the data file.
func (p *Pager) writeGroup(pgs []*page) error {
	if len(pgs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pg := range pgs {
		if pg.ID == invalidPage || pg.ID >= p.pages {
			return fmt.Errorf("%w: %d (have %d)", errOutOfRange, pg.ID, p.pages)
		}
	}
	if p.wal == nil {
		for _, pg := range pgs {
			pg.seal()
		}
	} else if err := p.wal.appendGroup(pgs, p.header()); err != nil { // seals them
		return fmt.Errorf("relstore: logging page group: %w", err)
	}
	for _, pg := range pgs {
		if _, err := p.f.WriteAt(pg.buf[:], int64(pg.ID)*PageSize); err != nil {
			return fmt.Errorf("relstore: writing page %d: %w", pg.ID, err)
		}
	}
	return p.writeHeader()
}

// Checkpoint fsyncs the data file and then truncates the attached log,
// whose every record is redundant from that moment.
func (p *Pager) checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.syncLocked(); err != nil || p.wal == nil {
		return err
	}
	p.checkpoints++
	return p.wal.truncate()
}

// IOStats counts the durability work done since the pager was opened:
// fsyncs of the attached log (one per group commit) and bytes appended to
// it, fsyncs of the data file, and checkpoints (each a data fsync followed
// by a log truncation).
type IOStats struct{ WALFsyncs, WALBytes, DataFsyncs, Checkpoints int64 }

// IOStats returns the pager's durability counters.
func (p *Pager) IOStats() IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := IOStats{DataFsyncs: p.dataSyncs, Checkpoints: p.checkpoints}
	if p.wal != nil {
		st.WALFsyncs, st.WALBytes = p.wal.Stats()
	}
	return st
}

// RecoverPager repairs a store file from its write-ahead log: it rewrites
// every logged page image and pager header and fsyncs the file; then, if rows
// records follow the last group, it opens the store, redoes their rows
// through Table.Insert and commits the redo as one group, whose checkpoint
// fsyncs the file again. Last it truncates the log. It returns the number of
// page images rewritten and rows redone. The log holds every page write
// since the data file was last fsynced, in order, so it does not matter which
// of them the file already has, or has torn; and it holds every row stored
// since the last group. Use before OpenPager on any store that commits
// through a log.
//
// Redo is idempotent: a logged row that is stored with the same bytes is
// skipped, so a log that comes back after a finished recovery changes
// nothing. A row stored with other bytes fails recovery with errCorrupt, and
// nothing of the redo is written.
//
// A store of another format version is refused with errFormatVersion before
// either file is touched: its log is not this build's to replay. A page 0
// that holds no header at all is left to the log, which has every header
// since the last checkpoint.
func RecoverPager(storePath, walPath string) (int, error) {
	f, err := os.OpenFile(storePath, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [storeHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err == nil {
		if err := checkFormat(hdr[:]); errors.Is(err, errFormatVersion) {
			return 0, err
		}
	}
	w, err := OpenWAL(walPath)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	n, rows, err := w.replay(func(id PageID, image []byte) error {
		_, werr := f.WriteAt(image, int64(id)*PageSize)
		return werr
	})
	if err != nil {
		return n, fmt.Errorf("relstore: recovery replay: %w", err)
	}
	if err := f.Sync(); err != nil {
		return n, err
	}
	if len(rows) == 0 {
		return n, w.truncate()
	}
	redone, err := redo(storePath, w, rows)
	if err != nil {
		return n, fmt.Errorf("relstore: recovery redo: %w", err)
	}
	return n + redone, nil
}

// redo opens the store, inserts the rows of the given rows record bodies that
// it does not hold yet and closes it, which writes them as one logged group
// and checkpoints. It returns the number of rows inserted. On an error
// nothing is written.
func redo(storePath string, w *WAL, bodies [][]byte) (int, error) {
	db, err := Open(storePath)
	if err != nil {
		return 0, err
	}
	n, err := 0, db.AttachWAL(w)
	if err == nil {
		n, err = db.redo(bodies)
	}
	if err != nil {
		db.bp.pager.f.Close()
		return n, err
	}
	return n, db.Close()
}
