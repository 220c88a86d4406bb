package relstore

import (
	"bytes"
	"errors"
	"testing"
)

func TestPageInsertGet(t *testing.T) {
	p := newPage(1, kindHeap)
	for i, cell := range []string{"hello", "world!"} {
		slot, err := p.InsertCell([]byte(cell))
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Errorf("cell %d went into slot %d", i, slot)
		}
	}
	c, err := p.Cell(0)
	if err != nil || string(c) != "hello" {
		t.Fatalf("Cell = %q, %v", c, err)
	}
	for _, slot := range []int{-1, 2, 99} {
		if _, err := p.Cell(slot); !errors.Is(err, errBadSlot) {
			t.Errorf("Cell(%d) of 2: %v", slot, err)
		}
	}
	// A slot as a corrupt file may hold it: a cell inside the header, or
	// past the page end.
	for _, bad := range [][2]int{{0, 0}, {headerSize - 1, 1}, {PageSize - 4, 5}} {
		p.setSlot(1, bad[0], bad[1])
		if _, err := p.Cell(1); !errors.Is(err, errBadSlot) {
			t.Errorf("slot of a cell at %d, %d bytes: %v", bad[0], bad[1], err)
		}
	}
}

func TestPageFull(t *testing.T) {
	p := newPage(1, kindHeap)
	payload := bytes.Repeat([]byte("x"), 100)
	fill := func() int {
		n := 0
		for ; ; n++ {
			s, err := p.InsertCell(payload)
			if errors.Is(err, errPageFull) {
				return n
			}
			if err != nil {
				t.Fatal(err)
			}
			if s != n {
				t.Fatalf("cell %d went into slot %d", n, s)
			}
		}
	}
	n := fill()
	if want := (PageSize - headerSize) / (len(payload) + slotSize); n != want {
		t.Fatalf("%d cells of %d bytes fit in a page, want %d", n, len(payload), want)
	}
	for i := 0; i < n; i++ {
		if c, err := p.Cell(i); err != nil || !bytes.Equal(c, payload) {
			t.Fatalf("cell %d of a full page: %v", i, err)
		}
	}
	// Init is the only way back to an empty page, and it takes as many again.
	p.Init(kindHeap)
	if again := fill(); again != n {
		t.Errorf("%d cells fit after Init, %d before", again, n)
	}
}

func TestPageCellTooBig(t *testing.T) {
	p := newPage(1, kindHeap)
	if _, err := p.InsertCell(make([]byte, maxCellSize+1)); !errors.Is(err, errCellTooBig) {
		t.Errorf("oversized cell: %v", err)
	}
	if _, err := p.InsertCell(make([]byte, maxCellSize)); err != nil {
		t.Errorf("max-size cell rejected: %v", err)
	}
}

func TestPageChecksum(t *testing.T) {
	p := newPage(1, kindHeap)
	p.InsertCell([]byte("data"))
	p.seal()
	if err := p.verify(); err != nil {
		t.Fatal(err)
	}
	p.buf[2000] ^= 0xFF
	if err := p.verify(); !errors.Is(err, errCorrupt) {
		t.Errorf("corrupted page verified: %v", err)
	}
}

func TestPageNextLink(t *testing.T) {
	p := newPage(1, kindHeap)
	p.SetNext(42)
	if p.Next() != 42 {
		t.Error("Next link lost")
	}
	p.Init(kindHeap)
	if p.Next() != invalidPage {
		t.Error("Init must clear link")
	}
}

func TestPageFreeSpaceAccounting(t *testing.T) {
	p := newPage(1, kindHeap)
	before := p.FreeSpace()
	p.InsertCell(make([]byte, 64))
	after := p.FreeSpace()
	if before-after != 64+slotSize {
		t.Errorf("free space delta = %d, want %d", before-after, 64+slotSize)
	}
}
