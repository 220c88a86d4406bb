// Package relstore is a from-scratch relational storage engine playing the
// role MySQL 4.1 plays in the paper's CPDB deployment: it hosts the
// provenance store and the wrapped relational source database.
//
// The engine provides slotted pages with checksums, a buffer pool, heap
// files, B+tree indexes, and typed tables with primary and secondary
// indexes. It is deliberately conventional: the paper's results depend on
// row counts, physical bytes and round-trip counts, all of which this
// engine reproduces faithfully. The physical bytes of a row are its columns:
// the key columns as the primary tree's key, the others as its value, and
// per secondary index one key — the index columns, then the key columns not
// among them — carrying the same value, so an index covers every read
// through it; an int key field is as long as its value's significant bytes
// (codec.go), and leaves hold keys front-coded in runs of up to 16
// (btree.go), so consecutive keys cost their difference.
//
// What the package exports is the engine: DB and Table, the schema types,
// rows and the key helpers its one durable caller (relprov) decodes with.
// The page layer under them — pages, pager, buffer pool, heap and trees —
// is the package's own.
package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageSize is the fixed size of every page, a conventional 4 KiB.
const PageSize = 4096

// pageID identifies a page within a store file. Page 0 is the store header
// and is never handed out.
type pageID uint32

// invalidPage is the zero pageID, used as a nil link.
const invalidPage pageID = 0

// Page kinds.
const (
	kindHeap       byte = 1
	kindBTreeLeaf  byte = 2
	kindBTreeInner byte = 3
)

// Page header layout (bytes):
//
//	0..3   checksum (crc32 of bytes 4..PageSize)
//	4      kind
//	5..6   slot count (uint16)
//	7..8   free-space offset (uint16): start of the cell area, grows down
//	9..12  next page link (uint32), meaning depends on kind
//	13..15 reserved
//
// Slot directory entries of 4 bytes each ((offset uint16, length uint16))
// grow up from headerSize; cells grow down from PageSize, each written just
// below the free-space offset, and the free gap lies between the two. The
// slots are in the order the page's owner keeps its cells in, which need not
// be the order they were written in: a B-tree leaf writes a run's new cell
// into the gap and repoints or inserts its slot (putCell), leaving the bytes
// of a cell it replaced dead until the page is rebuilt from its live cells.
// A slot whose cell would overlap the header or run past the page end
// (offset 0 among them) is corrupt.
const (
	headerSize   = 16
	slotSize     = 4
	offChecksum  = 0
	offKind      = 4
	offSlotCount = 5
	offFreeOff   = 7
	offNext      = 9
)

// Errors returned by page operations.
var (
	errPageFull   = errors.New("relstore: page full")
	errBadSlot    = errors.New("relstore: bad slot")
	errCorrupt    = errors.New("relstore: page checksum mismatch")
	errCellTooBig = errors.New("relstore: cell exceeds maximum size")
)

// maxCellSize is the largest cell a page accepts, chosen so a page always
// fits at least four cells.
const maxCellSize = (PageSize - headerSize - 4*slotSize) / 4

// A page is one fixed-size block. Methods operate on the raw buffer; the
// checksum is computed at write-out and verified at read-in by the pager.
type page struct {
	ID  pageID
	buf [PageSize]byte
}

// newPage returns an initialized in-memory page of the given kind.
func newPage(id pageID, kind byte) *page {
	p := &page{ID: id}
	p.Init(kind)
	return p
}

// Init resets the page to an empty page of the given kind.
func (p *page) Init(kind byte) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.buf[offKind] = kind
	p.setSlotCount(0)
	p.setFreeOff(PageSize)
}

// Kind returns the page kind byte.
func (p *page) Kind() byte { return p.buf[offKind] }

// Next returns the page's link field.
func (p *page) Next() pageID {
	return pageID(binary.BigEndian.Uint32(p.buf[offNext:]))
}

// SetNext sets the page's link field.
func (p *page) SetNext(id pageID) {
	binary.BigEndian.PutUint32(p.buf[offNext:], uint32(id))
}

// NumSlots returns the number of slots, one per cell.
func (p *page) NumSlots() int {
	return int(binary.BigEndian.Uint16(p.buf[offSlotCount:]))
}

func (p *page) setSlotCount(n int) {
	binary.BigEndian.PutUint16(p.buf[offSlotCount:], uint16(n))
}

func (p *page) setFreeOff(off int) {
	if off == PageSize {
		// PageSize does not fit in uint16; store 0xFFFF sentinel.
		binary.BigEndian.PutUint16(p.buf[offFreeOff:], 0xFFFF)
		return
	}
	binary.BigEndian.PutUint16(p.buf[offFreeOff:], uint16(off))
}

func (p *page) freeOffVal() int {
	v := int(binary.BigEndian.Uint16(p.buf[offFreeOff:]))
	if v == 0xFFFF {
		return PageSize
	}
	return v
}

func (p *page) slotPos(i int) int { return headerSize + i*slotSize }

func (p *page) slot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.BigEndian.Uint16(p.buf[pos:])), int(binary.BigEndian.Uint16(p.buf[pos+2:]))
}

func (p *page) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.BigEndian.PutUint16(p.buf[pos:], uint16(off))
	binary.BigEndian.PutUint16(p.buf[pos+2:], uint16(length))
}

// FreeSpace returns the bytes available for one more cell (including its
// slot directory entry).
func (p *page) FreeSpace() int {
	return p.freeOffVal() - (headerSize + p.NumSlots()*slotSize) - slotSize
}

// InsertCell appends a cell in slot NumSlots() and returns that slot.
func (p *page) InsertCell(data []byte) (int, error) {
	if len(data) > maxCellSize {
		return 0, fmt.Errorf("%w: %d > %d", errCellTooBig, len(data), maxCellSize)
	}
	if p.FreeSpace() < len(data) {
		return 0, errPageFull
	}
	slot := p.NumSlots()
	p.putCell(slot, data, false)
	return slot, nil
}

// gap returns the bytes between the slot directory and the cell area: what
// new cells and new slots may take without a rebuild of the page. A page
// whose free-space offset lies past its end has no gap.
func (p *page) gap() int {
	if p.freeOffVal() > PageSize {
		return -1
	}
	return p.freeOffVal() - p.slotPos(p.NumSlots())
}

// putCell writes data into the free gap, just below the cell area, and
// points slot i at it: in place of the cell slot i held when replace is set
// (whose bytes stay on the page, dead), else as a new slot i, the slots from
// i on moving up by one. The caller has checked that the gap holds data and,
// for a new slot, one more slot entry.
func (p *page) putCell(i int, data []byte, replace bool) {
	off := p.freeOffVal() - len(data)
	copy(p.buf[off:], data)
	p.setFreeOff(off)
	if !replace {
		n := p.NumSlots()
		copy(p.buf[p.slotPos(i+1):p.slotPos(n+1)], p.buf[p.slotPos(i):p.slotPos(n)])
		p.setSlotCount(n + 1)
	}
	p.setSlot(i, off, len(data))
}

// liveBytes returns what the page's cells take with their slots, dead bytes
// excluded: the size a rebuild from its cells would fill.
func (p *page) liveBytes() int {
	n := p.NumSlots()
	size := n * slotSize
	for i := 0; i < n; i++ {
		_, length := p.slot(i)
		size += length
	}
	return size
}

// Cell returns the cell stored in the given slot. The returned slice aliases
// the page buffer; callers must copy before the page is modified or evicted.
func (p *page) Cell(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, fmt.Errorf("%w: %d of %d", errBadSlot, i, p.NumSlots())
	}
	// The slot came from disk: a cell inside the header or past the page
	// end is a corrupt slot, not a cell.
	off, length := p.slot(i)
	if off < headerSize || off+length > PageSize {
		return nil, fmt.Errorf("%w: slot %d corrupt (cell at %d, %d bytes)", errBadSlot, i, off, length)
	}
	return p.buf[off : off+length], nil
}

// seal computes and stores the checksum prior to write-out.
func (p *page) seal() {
	sum := crc32.ChecksumIEEE(p.buf[4:])
	binary.BigEndian.PutUint32(p.buf[offChecksum:], sum)
}

// verify checks the stored checksum after read-in.
func (p *page) verify() error {
	want := binary.BigEndian.Uint32(p.buf[offChecksum:])
	if got := crc32.ChecksumIEEE(p.buf[4:]); got != want {
		return fmt.Errorf("%w: page %d", errCorrupt, p.ID)
	}
	return nil
}
