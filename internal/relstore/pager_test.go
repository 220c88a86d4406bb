package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func tempStore(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "store.db")
}

// openPagerPath opens the existing store file at path without a log.
func openPagerPath(path string) (*pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	p, err := openPager(f, nil)
	if err != nil {
		f.Close()
	}
	return p, err
}

func TestPagerCreateOpen(t *testing.T) {
	path := tempStore(t)
	p, err := createPager(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.alloc(kindHeap)
	if err != nil {
		t.Fatal(err)
	}
	pg.InsertCell([]byte("persisted"))
	if err := p.writeGroup([]*page{pg}); err != nil {
		t.Fatal(err)
	}
	if err := p.setCatalog(pg.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := openPagerPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.catalogRoot() != pg.ID {
		t.Errorf("catalog = %d, want %d", q.catalogRoot(), pg.ID)
	}
	got, err := q.read(pg.ID)
	if err != nil {
		t.Fatal(err)
	}
	c, err := got.Cell(0)
	if err != nil || string(c) != "persisted" {
		t.Errorf("cell = %q, %v", c, err)
	}
}

func TestPagerBadMagic(t *testing.T) {
	path := tempStore(t)
	if err := os.WriteFile(path, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openPagerPath(path); !errors.Is(err, errBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
}

func TestPagerOutOfRange(t *testing.T) {
	p, err := createPager(tempStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.read(invalidPage); !errors.Is(err, errOutOfRange) {
		t.Errorf("read page 0: %v", err)
	}
	if _, err := p.read(999); !errors.Is(err, errOutOfRange) {
		t.Errorf("read unallocated: %v", err)
	}
}

// TestPagerCorruptionDetection flips a byte on disk and verifies the read
// fails the checksum — the paper's provenance data is "potentially
// priceless", so silent corruption is unacceptable.
func TestPagerCorruptionDetection(t *testing.T) {
	path := tempStore(t)
	p, err := createPager(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := p.alloc(kindHeap)
	pg.InsertCell([]byte("precious provenance"))
	p.writeGroup([]*page{pg})
	p.Close()

	// Flip one byte in the page body on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(pg.ID)*PageSize + 100
	var b [1]byte
	f.ReadAt(b[:], off)
	b[0] ^= 0x01
	f.WriteAt(b[:], off)
	f.Close()

	q, err := openPagerPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.read(pg.ID); !errors.Is(err, errCorrupt) {
		t.Errorf("corrupted page read succeeded: %v", err)
	}
}

func TestPagerFileSize(t *testing.T) {
	p, err := createPager(tempStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		pg, _ := p.alloc(kindHeap)
		p.writeGroup([]*page{pg})
	}
	sz, err := p.fileSize()
	if err != nil {
		t.Fatal(err)
	}
	if sz != 6*PageSize {
		t.Errorf("FileSize = %d, want %d", sz, 6*PageSize)
	}
}

// TestFormatVersionRefusesParent: a store an earlier format wrote — version
// 2: int key fields of eight bytes, index entries with no value; version 3:
// path key fields escaped as bytes; version 4: a log of page groups alone,
// which would read a rows record as a torn tail — page 0 and a committed log, byte for
// byte as that code wrote them, is refused with errFormatVersion by recovery
// and by open, with neither file touched; a store this build writes carries
// its version through Close/Open and, in every logged header, through
// recovery.
func TestFormatVersionRefusesParent(t *testing.T) {
	dir := t.TempDir()
	for _, version := range []uint32{2, 3, 4} {
		refuseVersion(t, dir, version)
	}

	// A fresh store: the version is on page 0 after Close...
	fresh := filepath.Join(dir, "fresh.db")
	w, err := createWAL(fresh + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	p, err := createPager(fresh, w)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.alloc(kindHeap)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.writeGroup([]*page{pg}); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(fresh + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	page0 := make([]byte, storeHeaderSize)
	if f, err := os.Open(fresh); err != nil {
		t.Fatal(err)
	} else if _, err := f.ReadAt(page0, 0); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	if v := binary.BigEndian.Uint32(page0[16:]); v != formatVersion || formatVersion == 0 {
		t.Errorf("page 0 of a fresh store holds version %d, want %d", v, formatVersion)
	}
	reopen := func(path string, wantPages pageID) {
		t.Helper()
		q, err := openPagerPath(path)
		if err != nil {
			t.Fatalf("a store this build wrote does not open: %v", err)
		}
		defer q.Close()
		if q.NumPages() != wantPages {
			t.Errorf("NumPages = %d, want %d", q.NumPages(), wantPages)
		}
	}
	reopen(fresh, 2)
	// ...and in the log: a data file that kept nothing of its first commit,
	// not even its header, is whole again after recovery.
	lost := filepath.Join(dir, "lost.db")
	if err := os.WriteFile(lost, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lost+".wal", committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := recoverPages(lost, lost+".wal"); err != nil || n != 1 {
		t.Fatalf("recovery = %d, %v; want 1 page", n, err)
	}
	reopen(lost, 2)
}

// refuseVersion writes, in dir, the one-page store and committed log the
// given format version's code wrote, and requires recovery and open to
// refuse them with errFormatVersion, touching neither file.
func refuseVersion(t *testing.T, dir string, version uint32) {
	t.Helper()
	store := filepath.Join(dir, fmt.Sprintf("v%d.db", version))
	log := store + ".wal"
	// That version's pager.header(): five big-endian words, the rest of
	// page 0 zero; then its one page, the catalog heap.
	hdr := binary.BigEndian.AppendUint32(nil, 0xC9DB2006)
	hdr = binary.BigEndian.AppendUint32(hdr, 2)       // pages
	hdr = binary.BigEndian.AppendUint32(hdr, 0)       // reserved
	hdr = binary.BigEndian.AppendUint32(hdr, 1)       // catalog
	hdr = binary.BigEndian.AppendUint32(hdr, version) // format version
	cat := newPage(1, kindHeap)
	cat.InsertCell([]byte(`{"schema":{"name":"prov"}}`))
	cat.seal()
	data := append(append(hdr, make([]byte, PageSize-len(hdr))...), cat.buf[:]...)
	// Its log: one group — that header and a page count of one — and the image.
	body := binary.BigEndian.AppendUint32(bytes.Clone(hdr), 1)
	group := binary.BigEndian.AppendUint32(nil, 0xCA11B0C6)
	group = binary.BigEndian.AppendUint64(group, 1)
	group = binary.BigEndian.AppendUint32(group, 0)
	group = binary.BigEndian.AppendUint32(group, crc32.ChecksumIEEE(body))
	group = append(group, body...)
	group = binary.BigEndian.AppendUint32(group, 0xCA11B0C5)
	group = binary.BigEndian.AppendUint64(group, 2)
	group = binary.BigEndian.AppendUint32(group, 1)
	group = binary.BigEndian.AppendUint32(group, crc32.ChecksumIEEE(cat.buf[:]))
	group = append(group, cat.buf[:]...)
	for name, content := range map[string][]byte{store: data, log: group} {
		if err := os.WriteFile(name, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, n, err := open(store, false, true); !errors.Is(err, errFormatVersion) || n != 0 {
		t.Errorf("recovery on a version %d store = %d, %v; want ErrFormatVersion", version, n, err)
	}
	if _, err := openPagerPath(store); !errors.Is(err, errFormatVersion) {
		t.Errorf("openPagerPath on a version %d store: %v; want ErrFormatVersion", version, err)
	}
	if _, err := Open(store, false, false); !errors.Is(err, errFormatVersion) {
		t.Errorf("Open on a version %d store: %v; want ErrFormatVersion", version, err)
	}
	for name, content := range map[string][]byte{store: data, log: group} {
		if now, err := os.ReadFile(name); err != nil || !bytes.Equal(now, content) {
			t.Errorf("version %d: %s was modified by the refused opens (%v)", version, filepath.Base(name), err)
		}
	}
}
