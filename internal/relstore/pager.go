package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// storeMagic identifies a relstore file.
const storeMagic uint32 = 0xC9DB2006 // "curated databases, 2006"

// formatVersion is the on-disk format this build writes and the only one it
// reads: front-coded leaf runs, int key fields as long as their significant
// bytes, index entries that carry their row's value, path key fields stored
// as their bytes and one 0x00 (TPath; version 3 escaped them as bytes), and a
// log that holds rows records beside page groups (version 4 logged page
// groups only, and would read a rows record as a torn tail). It sits in the
// store header, in bytes that were reserved — and zero — before it existed,
// so a store that predates it reads as version 0.
const formatVersion uint32 = 5

// A pager reads and writes fixed-size pages of a store file. Page 0 holds
// the store header: magic, page count, four reserved bytes (zero), the
// catalog root page id and the format version. Pages are written in groups
// (writeGroup), the only way to the data file. Header changes are kept in
// memory and written out with the next page group, Sync or Close — after the
// store's write-ahead log, if it has one, has them: like every page, the
// header never reaches the data file ahead of the log. The log is fixed when
// the pager is made, and the pager's Close closes it.
//
// The pager is safe for concurrent use; callers serialize logical operations
// above it (the engine uses a single-writer model, as the paper's CPDB did).
type pager struct {
	mu      sync.Mutex
	f       *os.File
	pages   pageID // total pages allocated, including page 0
	catalog pageID
	// hdrDirty: the header changed since it was last written; the next page
	// group or Sync logs and writes it.
	hdrDirty bool
	wal      *wal // the store's write-ahead log, or nil

	dataSyncs, checkpoints int64 // see IOStats
}

// storeHeaderSize is the used prefix of page 0.
const storeHeaderSize = 20

// Errors returned by the pager.
var (
	errBadMagic = errors.New("relstore: not a relstore file")
	// errFormatVersion refuses a store file another format version wrote. No
	// second decoder is kept: a store does not outlive the build that wrote it.
	errFormatVersion = errors.New("relstore: store format version not supported")
	errOutOfRange    = errors.New("relstore: page id out of range")
)

// createPager creates a new store file (truncating any existing one) whose
// page groups go to w first, if w is not nil.
func createPager(path string, w *wal) (*pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	p := &pager{f: f, pages: 1, hdrDirty: true, wal: w}
	// Page 0 is all zeroes but for its header.
	if err = f.Truncate(PageSize); err == nil {
		err = p.writeHeader()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// openPager reads the header of the store file f, whose page groups go to w
// first, if w is not nil.
func openPager(f *os.File, w *wal) (*pager, error) {
	p := &pager{f: f, wal: w}
	if err := p.readHeader(); err != nil {
		return nil, err
	}
	return p, nil
}

// header encodes the current header fields.
func (p *pager) header() (buf [storeHeaderSize]byte) {
	binary.BigEndian.PutUint32(buf[0:], storeMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(p.pages))
	// Bytes 8–11 are reserved and zero.
	binary.BigEndian.PutUint32(buf[12:], uint32(p.catalog))
	binary.BigEndian.PutUint32(buf[16:], formatVersion)
	return buf
}

// checkFormat judges the front of page 0: errBadMagic for a file that is not
// a store, errFormatVersion for a store of another format.
func checkFormat(hdr []byte) error {
	if len(hdr) < storeHeaderSize || binary.BigEndian.Uint32(hdr[0:]) != storeMagic {
		return errBadMagic
	}
	if v := binary.BigEndian.Uint32(hdr[16:]); v != formatVersion {
		return fmt.Errorf("%w: file is version %d, this build reads and writes %d", errFormatVersion, v, formatVersion)
	}
	return nil
}

// writeHeader writes the header to the data file if it may have changed.
// With a log the caller has logged it first. Caller holds mu.
func (p *pager) writeHeader() error {
	if !p.hdrDirty {
		return nil
	}
	hdr := p.header()
	if _, err := p.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("relstore: writing header: %w", err)
	}
	p.hdrDirty = false
	return nil
}

func (p *pager) readHeader() error {
	var buf [PageSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(p.f, 0, PageSize), buf[:]); err != nil {
		return fmt.Errorf("relstore: reading header: %w", err)
	}
	if err := checkFormat(buf[:]); err != nil {
		return err
	}
	p.pages = pageID(binary.BigEndian.Uint32(buf[4:]))
	p.catalog = pageID(binary.BigEndian.Uint32(buf[12:]))
	return nil
}

// catalogRoot returns the catalog root page id (0 if not yet set).
func (p *pager) catalogRoot() pageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.catalog
}

// setCatalog records the catalog root page id in the header.
func (p *pager) setCatalog(id pageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.catalog = id
	p.hdrDirty = true
	return nil
}

// NumPages returns the total number of pages, including the header page.
func (p *pager) NumPages() pageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages
}

// Alloc allocates a page at the end of the file. The returned page is
// initialized to the given kind and exists only in memory until a writeGroup
// carries it.
func (p *pager) alloc(kind byte) (*page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.pages
	p.pages++
	p.hdrDirty = true
	return newPage(id, kind), nil
}

// Read fetches a page from disk, verifying its checksum.
func (p *pager) read(id pageID) (*page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readLocked(id)
}

func (p *pager) readLocked(id pageID) (*page, error) {
	if id == invalidPage || id >= p.pages {
		return nil, fmt.Errorf("%w: %d (have %d)", errOutOfRange, id, p.pages)
	}
	pg := &page{ID: id}
	if _, err := p.f.ReadAt(pg.buf[:], int64(id)*PageSize); err != nil {
		return nil, fmt.Errorf("relstore: reading page %d: %w", id, err)
	}
	if err := pg.verify(); err != nil {
		return nil, err
	}
	return pg, nil
}

// Sync writes out a changed header and fsyncs the data file. With a log, a
// group of no pages first makes the header durable there: the
// data file on disk is never newer than the log.
func (p *pager) sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncLocked()
}

func (p *pager) syncLocked() error {
	if p.wal != nil && p.hdrDirty {
		if err := p.wal.appendGroup(nil, p.header()); err != nil {
			return fmt.Errorf("relstore: syncing log: %w", err)
		}
	}
	if err := p.writeHeader(); err != nil {
		return err
	}
	p.dataSyncs++
	return p.f.Sync()
}

// Close checkpoints (syncs the data file, then empties the log) and closes
// the store file and the log.
func (p *pager) Close() error {
	return errors.Join(p.checkpoint(), p.closeFiles())
}

// closeFiles closes the store file and the log as they are.
func (p *pager) closeFiles() error {
	errs := []error{p.f.Close()}
	if p.wal != nil {
		errs = append(errs, p.wal.f.Close())
	}
	return errors.Join(errs...)
}

// FileSize returns the current size of the store file in bytes.
func (p *pager) fileSize() (int64, error) {
	fi, err := p.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
