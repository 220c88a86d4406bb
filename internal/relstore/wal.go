package relstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// A wal is the write-ahead log of a durable store, the file path + ".wal"
// beside its data file; Open attaches it before the first page is dirtied and
// Close checkpoints and closes it. A commit is logged one of two
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
// mechanism". This log is exactly that system-critical mechanism — it knows
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
type wal struct {
	mu  sync.Mutex
	f   *os.File
	lsn uint64
	end int64  // bytes in the log; the next append goes here
	buf []byte // encode buffer, reused from append to append
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

// createWAL creates (truncating) a log file.
func createWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f}, nil
}

// openWAL opens the log file at path, creating an empty one if absent, and
// replays it through apply (see replay): one read of the file. The log is
// cut after its last whole unit, where appends resume. It returns the
// number of page images applied and the rows records to redo.
func openWAL(path string, apply func(id pageID, image []byte) error) (w *wal, pages int, rows [][]byte, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, nil, err
	}
	w = &wal{f: f}
	fi, err := f.Stat()
	if err == nil {
		w.end = fi.Size()
		if pages, rows, err = w.replay(apply); err == nil {
			err = f.Truncate(w.end)
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, nil, err
	}
	return w, pages, rows, nil
}

// appendGroup logs a commit — the pager header and a batch of page images —
// with one write and one fsync: however many records (or whole
// transactions) dirtied these pages, that is all the log pays.
func (w *wal) appendGroup(pgs []*page, header [storeHeaderSize]byte) error {
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
// body, see wal — with one write and one fsync.
func (w *wal) appendRows(body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commit(w.appendRecord(w.buf[:0], walRowsMagic, pageID(len(body)), body))
}

// commit appends the encoded records of one commit to the log with one write
// and one fsync, keeping buf to encode the next commit in unless it grew past
// walKeepBuf. Caller holds mu.
func (w *wal) commit(buf []byte) error {
	if cap(buf) <= walKeepBuf {
		w.buf = buf[:0]
	}
	if _, err := w.f.WriteAt(buf, w.end); err != nil {
		return err
	}
	w.end += int64(len(buf))
	w.bytes += int64(len(buf))
	w.fsyncs++
	return w.f.Sync()
}

// appendRecord encodes one record, its body given in pieces, under the next
// LSN. The checksum is taken over the encoded copy, so no piece escapes.
func (w *wal) appendRecord(buf []byte, magic uint32, id pageID, body ...[]byte) []byte {
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

// errTornLog ends a replay: the next record is missing, cut short, fails its
// checksum or has no place where it lies.
var errTornLog = errors.New("relstore: torn write-ahead log record")

// replay reads the log up to its end and calls apply for every group header
// and page image of its whole units, in order, a header as a
// storeHeaderSize-byte image of page 0. A group is read whole before any of
// it is applied, so apply never sees part of one, and image is valid until
// apply returns. replay returns the number of page images applied and, in
// log order, the bodies of the rows records after the last group — the
// commits no page image holds, which an open redoes. A torn record, a group
// missing any of its records and a page record no group counts each end the
// usable log: replay leaves the log's end after the last whole unit (on a log
// this process wrote, where it was) and the LSN after the newest one read.
func (w *wal) replay(apply func(id pageID, image []byte) error) (pages int, rows [][]byte, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var (
		r        = bufio.NewReaderSize(io.NewSectionReader(w.f, 0, w.end), 1<<16)
		prefix   [walHeaderSize]byte
		group    [storeHeaderSize + 4]byte // the open group's record,
		ids      []pageID                  // its pages so far
		images   []byte                    // and their images, back to back
		pending  uint32                    // page records the open group still lacks
		pos, end int64
	)
	next := func() (magic uint32, id pageID, body []byte, err error) {
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			return 0, 0, nil, errTornLog
		}
		magic, id = binary.BigEndian.Uint32(prefix[0:]), pageID(binary.BigEndian.Uint32(prefix[12:]))
		switch {
		case magic == walMagic && pending > 0:
			images = slices.Grow(images, PageSize)
			body = images[len(images) : len(images)+PageSize]
		case magic == walGroupMagic && pending == 0:
			body = group[:]
		case magic == walRowsMagic && pending == 0 && int64(id) <= w.end-pos-walHeaderSize:
			body = make([]byte, id)
		default:
			return 0, 0, nil, errTornLog
		}
		if _, err := io.ReadFull(r, body); err != nil || crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(prefix[16:]) {
			return 0, 0, nil, errTornLog
		}
		w.lsn = max(w.lsn, binary.BigEndian.Uint64(prefix[4:]))
		pos += walHeaderSize + int64(len(body))
		return magic, id, body, nil
	}
	for {
		magic, id, body, err := next()
		if err != nil {
			w.end = end
			return pages, rows, nil
		}
		switch magic {
		case walRowsMagic:
			rows = append(rows, body)
		case walGroupMagic:
			pending, ids, images = binary.BigEndian.Uint32(group[storeHeaderSize:]), ids[:0], images[:0]
		case walMagic:
			pending, ids, images = pending-1, append(ids, id), images[:len(images)+PageSize]
		}
		if pending > 0 {
			continue
		}
		if magic != walRowsMagic { // a whole group: its header, then its pages
			if err := apply(invalidPage, group[:storeHeaderSize]); err != nil {
				return pages, rows, err
			}
			for i, id := range ids {
				if err := apply(id, images[i*PageSize:(i+1)*PageSize]); err != nil {
					return pages, rows, err
				}
			}
			pages, rows = pages+len(ids), nil
		}
		end = pos
	}
}

// truncate empties the log (a checkpoint: every logged write is in the
// fsynced data file). The truncation is not itself fsynced — the next
// group's fsync covers it; a crash before that may bring the old log back,
// and replaying it over a data file that holds all of it changes nothing.
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.end = 0
	return nil
}

// size returns the log size in bytes.
func (w *wal) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end
}

// stats returns the log fsyncs and bytes appended since the log was opened.
func (w *wal) stats() (fsyncs, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncs, w.bytes
}

// --- pager integration ------------------------------------------------------

// walCheckpointBytes bounds the log's growth: a commit that finds the log
// past this size writes its pages as a group, fsyncs the data file (making
// every logged record redundant) and truncates the log.
const walCheckpointBytes = 4 << 20

// writeGroup seals and persists a batch of pages as one group commit. With
// a log, the images and the pager header reach the log with one write and
// one fsync (appendGroup) — the group is durable from then on — and are then
// written to the data file, which is not fsynced: until the next checkpoint
// the log is what a crash recovers the group from. Without a log these are
// plain writes, a single evicted page included; the caller is then
// responsible for syncing the data file.
func (p *pager) writeGroup(pgs []*page) error {
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

// checkpoint fsyncs the data file and then truncates the log, whose every
// record is redundant from that moment.
func (p *pager) checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.syncLocked(); err != nil || p.wal == nil {
		return err
	}
	p.checkpoints++
	return p.wal.truncate()
}

// IOStats counts the durability work done since the pager was opened:
// fsyncs of the log (one per group commit) and bytes appended to it, fsyncs
// of the data file, and checkpoints (each a data fsync followed by a log
// truncation).
type IOStats struct{ WALFsyncs, WALBytes, DataFsyncs, Checkpoints int64 }

// IOStats returns the pager's durability counters.
func (p *pager) IOStats() IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := IOStats{DataFsyncs: p.dataSyncs, Checkpoints: p.checkpoints}
	if p.wal != nil {
		st.WALFsyncs, st.WALBytes = p.wal.stats()
	}
	return st
}
