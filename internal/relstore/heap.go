package relstore

import (
	"bytes"
	"errors"
	"fmt"
)

// A heap is an append-only file of variable-length records chained across
// pages. The heap remembers its last page for O(1) appends; scans follow the
// page chain. Tables are index-organised (rows live in their primary
// B-tree's leaves); the one heap in a store file holds the catalog.
type heap struct {
	bp    *bufferPool
	first pageID
	last  pageID
}

// newHeap creates an empty heap, allocating its first page.
func newHeap(bp *bufferPool) (*heap, error) {
	pg, err := bp.alloc(kindHeap)
	if err != nil {
		return nil, err
	}
	bp.unpin(pg.ID, true)
	return &heap{bp: bp, first: pg.ID, last: pg.ID}, nil
}

// openHeap attaches to an existing heap by its first page id, walking the
// chain to find the last page.
func openHeap(bp *bufferPool, first pageID) (*heap, error) {
	h := &heap{bp: bp, first: first, last: first}
	for {
		pg, err := bp.fetch(h.last)
		if err != nil {
			return nil, err
		}
		next := pg.Next()
		bp.unpin(h.last, false)
		if next == invalidPage {
			return h, nil
		}
		h.last = next
	}
}

// Insert appends a record.
func (h *heap) Insert(data []byte) error {
	if len(data) > maxCellSize {
		return fmt.Errorf("%w: %d bytes", errCellTooBig, len(data))
	}
	pg, err := h.bp.fetch(h.last)
	if err != nil {
		return err
	}
	_, err = pg.InsertCell(data)
	if err == nil {
		h.bp.unpin(pg.ID, true)
		return nil
	}
	if !errors.Is(err, errPageFull) {
		h.bp.unpin(pg.ID, false)
		return err
	}
	if next := pg.Next(); next != invalidPage {
		// A page kept by Reset: fill it before growing the chain.
		h.bp.unpin(pg.ID, false)
		h.last = next
		return h.Insert(data)
	}
	// Grow the chain.
	npg, err := h.bp.alloc(kindHeap)
	if err != nil {
		h.bp.unpin(pg.ID, false)
		return err
	}
	pg.SetNext(npg.ID)
	h.bp.unpin(pg.ID, true)
	h.last = npg.ID
	_, err = npg.InsertCell(data)
	h.bp.unpin(npg.ID, true)
	return err
}

// Reset empties the heap and keeps its pages: the next Insert fills them
// again from the first. A heap rewritten wholesale — the catalog, at every
// commit — so takes the room of its records, not of every version of them.
func (h *heap) reset() error {
	for id := h.first; id != invalidPage; {
		pg, err := h.bp.fetch(id)
		if err != nil {
			return err
		}
		next := pg.Next()
		pg.Init(kindHeap)
		pg.SetNext(next)
		h.bp.unpin(id, true)
		id = next
	}
	h.last = h.first
	return nil
}

// Scan calls fn for every record in the heap, in chain order, stopping
// early if fn returns false.
func (h *heap) Scan(fn func(data []byte) bool) error {
	id := h.first
	for id != invalidPage {
		pg, err := h.bp.fetch(id)
		if err != nil {
			return err
		}
		n := pg.NumSlots()
		for i := 0; i < n; i++ {
			cell, err := pg.Cell(i)
			if err != nil {
				h.bp.unpin(id, false)
				return fmt.Errorf("relstore: heap page %d: %w", id, err)
			}
			if !fn(bytes.Clone(cell)) {
				h.bp.unpin(id, false)
				return nil
			}
		}
		next := pg.Next()
		h.bp.unpin(id, false)
		id = next
	}
	return nil
}
