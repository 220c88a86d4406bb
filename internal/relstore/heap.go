package relstore

import (
	"errors"
	"fmt"
)

// A Heap is an unordered file of variable-length records chained across
// pages. Records are addressed by RID (page, slot). The heap remembers its
// last page for O(1) appends; full scans follow the page chain. Tables are
// index-organised (rows live in their primary B-tree's leaves); the one heap
// in a store file holds the catalog.
type Heap struct {
	bp    *BufferPool
	first PageID
	last  PageID
}

// An RID addresses one heap record.
type RID struct {
	Page PageID
	Slot uint16
}

// NewHeap creates an empty heap, allocating its first page.
func NewHeap(bp *BufferPool) (*Heap, error) {
	pg, err := bp.Alloc(KindHeap)
	if err != nil {
		return nil, err
	}
	bp.Unpin(pg.ID, true)
	return &Heap{bp: bp, first: pg.ID, last: pg.ID}, nil
}

// OpenHeap attaches to an existing heap by its first page id, walking the
// chain to find the last page.
func OpenHeap(bp *BufferPool, first PageID) (*Heap, error) {
	h := &Heap{bp: bp, first: first, last: first}
	for {
		pg, err := bp.Fetch(h.last)
		if err != nil {
			return nil, err
		}
		next := pg.Next()
		bp.Unpin(h.last, false)
		if next == InvalidPage {
			return h, nil
		}
		h.last = next
	}
}

// First returns the first page id (the heap's persistent identity).
func (h *Heap) First() PageID { return h.first }

// Insert appends a record and returns its RID.
func (h *Heap) Insert(data []byte) (RID, error) {
	if len(data) > MaxCellSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrCellTooBig, len(data))
	}
	pg, err := h.bp.Fetch(h.last)
	if err != nil {
		return RID{}, err
	}
	slot, err := pg.InsertCell(data)
	if err == nil {
		h.bp.Unpin(pg.ID, true)
		return RID{Page: pg.ID, Slot: uint16(slot)}, nil
	}
	if !errors.Is(err, ErrPageFull) {
		h.bp.Unpin(pg.ID, false)
		return RID{}, err
	}
	if next := pg.Next(); next != InvalidPage {
		// A page kept by Reset: fill it before growing the chain.
		h.bp.Unpin(pg.ID, false)
		h.last = next
		return h.Insert(data)
	}
	// Grow the chain.
	npg, aerr := h.bp.Alloc(KindHeap)
	if aerr != nil {
		h.bp.Unpin(pg.ID, false)
		return RID{}, aerr
	}
	pg.SetNext(npg.ID)
	h.bp.Unpin(pg.ID, true)
	h.last = npg.ID
	slot, err = npg.InsertCell(data)
	if err != nil {
		h.bp.Unpin(npg.ID, true)
		return RID{}, err
	}
	h.bp.Unpin(npg.ID, true)
	return RID{Page: npg.ID, Slot: uint16(slot)}, nil
}

// Reset empties the heap and keeps its pages: the next Insert fills them
// again from the first. A heap rewritten wholesale — the catalog, at every
// commit — so takes the room of its records, not of every version of them.
func (h *Heap) Reset() error {
	for id := h.first; id != InvalidPage; {
		pg, err := h.bp.Fetch(id)
		if err != nil {
			return err
		}
		next := pg.Next()
		pg.Init(KindHeap)
		pg.SetNext(next)
		h.bp.Unpin(id, true)
		id = next
	}
	h.last = h.first
	return nil
}

// Scan calls fn for every live record in the heap, in chain order, stopping
// early if fn returns false.
func (h *Heap) Scan(fn func(rid RID, data []byte) bool) error {
	id := h.first
	for id != InvalidPage {
		pg, err := h.bp.Fetch(id)
		if err != nil {
			return err
		}
		n := pg.NumSlots()
		for i := 0; i < n; i++ {
			cell, err := pg.Cell(i)
			if err != nil {
				continue // deleted slot
			}
			data := make([]byte, len(cell))
			copy(data, cell)
			if !fn(RID{Page: id, Slot: uint16(i)}, data) {
				h.bp.Unpin(id, false)
				return nil
			}
		}
		next := pg.Next()
		h.bp.Unpin(id, false)
		id = next
	}
	return nil
}
