package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// A BTree is a B+tree over byte-string keys and values, stored in pages.
// Inner nodes hold separator keys and child links; all values live in the
// leaf level, which is chained left-to-right for range scans. Keys are
// unique. Deletion is lazy (no rebalancing), the conventional choice for
// write-once provenance data.
//
// The tree is safe for concurrent readers with a single writer, serialized
// internally.
type BTree struct {
	mu   sync.RWMutex
	bp   *BufferPool
	root PageID
}

// Errors returned by B+tree operations.
var (
	ErrKeyNotFound = errors.New("relstore: key not found")
	ErrDupKey      = errors.New("relstore: duplicate key")
	ErrKeyTooBig   = errors.New("relstore: key/value too large for page")
)

// NewBTree creates an empty tree, allocating its root leaf.
func NewBTree(bp *BufferPool) (*BTree, error) {
	root, err := bp.Alloc(KindBTreeLeaf)
	if err != nil {
		return nil, err
	}
	bp.Unpin(root.ID, true)
	return &BTree{bp: bp, root: root.ID}, nil
}

// OpenBTree attaches to an existing tree by root page id.
func OpenBTree(bp *BufferPool, root PageID) *BTree {
	return &BTree{bp: bp, root: root}
}

// Root returns the current root page id (it changes when the root splits;
// persist it after mutations).
func (t *BTree) Root() PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// --- cell encoding -------------------------------------------------------

func leafCell(key, val []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	return append(buf, val...)
}

func decodeLeafCell(cell []byte) (key, val []byte, err error) {
	kl, n := binary.Uvarint(cell)
	if n <= 0 || uint64(len(cell)-n) < kl {
		return nil, nil, fmt.Errorf("relstore: corrupt leaf cell")
	}
	key = cell[n : n+int(kl)]
	rest := cell[n+int(kl):]
	vl, m := binary.Uvarint(rest)
	if m <= 0 || uint64(len(rest)-m) < vl {
		return nil, nil, fmt.Errorf("relstore: corrupt leaf cell value")
	}
	return key, rest[m : m+int(vl)], nil
}

func innerCell(key []byte, child PageID) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(key)))
	buf = append(buf, key...)
	var c [4]byte
	binary.BigEndian.PutUint32(c[:], uint32(child))
	return append(buf, c[:]...)
}

func decodeInnerCell(cell []byte) (key []byte, child PageID, err error) {
	kl, n := binary.Uvarint(cell)
	if n <= 0 || uint64(len(cell)-n) < kl+4 {
		return nil, 0, fmt.Errorf("relstore: corrupt inner cell")
	}
	key = cell[n : n+int(kl)]
	child = PageID(binary.BigEndian.Uint32(cell[n+int(kl):]))
	return key, child, nil
}

// --- node in-memory form -------------------------------------------------

// nodeCells reads all live cells of a node in slot order (which the tree
// maintains as key order), copying them out of the page buffer.
func nodeCells(pg *Page) ([][]byte, error) {
	out := make([][]byte, 0, pg.NumSlots())
	for i := 0; i < pg.NumSlots(); i++ {
		c, err := pg.Cell(i)
		if err != nil {
			return nil, err
		}
		d := make([]byte, len(c))
		copy(d, c)
		out = append(out, d)
	}
	return out, nil
}

// rewriteNode replaces a node's cells wholesale, preserving kind and link.
func rewriteNode(pg *Page, cells [][]byte) error {
	kind, next := pg.Kind(), pg.Next()
	pg.Init(kind)
	pg.SetNext(next)
	for _, c := range cells {
		if _, err := pg.InsertCell(c); err != nil {
			return err
		}
	}
	return nil
}

func cellsSize(cells [][]byte) int {
	sz := 0
	for _, c := range cells {
		sz += len(c) + slotSize
	}
	return sz
}

const nodeCapacity = PageSize - headerSize

// --- search --------------------------------------------------------------

// Get returns a copy of the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, error) {
	var out []byte
	found, err := t.View(key, func(val []byte) { out = bytes.Clone(val) })
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	return out, nil
}

// View reports whether key is present and, if it is, hands visit the stored
// value in place, while its leaf is pinned: visit must copy what it keeps
// and must not call into the tree.
func (t *BTree) View(key []byte, visit func(val []byte)) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.find(key, visit)
}

// Has reports whether key is present. It compares keys only: the value is
// neither decoded nor copied.
func (t *BTree) Has(key []byte) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.find(key, nil)
}

// find descends to key's leaf and reports whether key is there; on a hit
// with visit non-nil, visit sees the stored value while the leaf is still
// pinned (it must copy what it keeps). Caller holds mu.
func (t *BTree) find(key []byte, visit func(val []byte)) (bool, error) {
	leafID, err := t.descend(key, nil)
	if err != nil {
		return false, err
	}
	pg, err := t.bp.Fetch(leafID)
	if err != nil {
		return false, err
	}
	defer t.bp.Unpin(leafID, false)
	idx, exact, err := leafSearch(pg, key)
	if err != nil || !exact || visit == nil {
		return exact, err
	}
	cell, err := pg.Cell(idx)
	if err != nil {
		return false, err
	}
	_, val, err := decodeLeafCell(cell)
	if err != nil {
		return false, err
	}
	visit(val)
	return true, nil
}

// Last returns a copy of the largest key, ok=false on an empty tree. It is
// a rightmost descent — O(height) pages — whenever the rightmost leaf holds
// an entry. Deletes never rebalance, so that leaf (or a whole rightmost
// subtree) may have been emptied; the descent then backs up to the next
// child to the left, and only in that case touches more than one path.
func (t *BTree) Last() (key []byte, ok bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastUnder(t.root)
}

// lastUnder returns the largest key in the subtree rooted at id. The node
// stays pinned while its children are tried, so at most height pages are
// pinned at once.
func (t *BTree) lastUnder(id PageID) ([]byte, bool, error) {
	pg, err := t.bp.Fetch(id)
	if err != nil {
		return nil, false, err
	}
	defer t.bp.Unpin(id, false)
	n := pg.NumSlots()
	if pg.Kind() == KindBTreeLeaf {
		if n == 0 {
			return nil, false, nil
		}
		cell, err := pg.Cell(n - 1)
		if err != nil {
			return nil, false, err
		}
		k, _, err := decodeLeafCell(cell)
		if err != nil {
			return nil, false, err
		}
		return bytes.Clone(k), true, nil
	}
	// Children right to left: cell i-1 links child i, the header link is
	// child 0.
	for i := n; i >= 0; i-- {
		child := pg.Next()
		if i > 0 {
			cell, err := pg.Cell(i - 1)
			if err != nil {
				return nil, false, err
			}
			if _, child, err = decodeInnerCell(cell); err != nil {
				return nil, false, err
			}
		}
		if key, ok, err := t.lastUnder(child); err != nil || ok {
			return key, ok, err
		}
	}
	return nil, false, nil
}

// descend walks from the root to the leaf that should contain key. If path
// is non-nil, it is filled with the inner node ids visited (root first).
func (t *BTree) descend(key []byte, path *[]PageID) (PageID, error) {
	id := t.root
	for {
		pg, err := t.bp.Fetch(id)
		if err != nil {
			return 0, err
		}
		if pg.Kind() == KindBTreeLeaf {
			t.bp.Unpin(id, false)
			return id, nil
		}
		if path != nil {
			*path = append(*path, id)
		}
		child, err := innerChild(pg, key)
		t.bp.Unpin(id, false)
		if err != nil {
			return 0, err
		}
		id = child
	}
}

// innerChild picks the child covering key: child 0 is the header link; keys
// ≥ separator i go to child i+1.
func innerChild(pg *Page, key []byte) (PageID, error) {
	n := pg.NumSlots()
	lo, hi := 0, n // count of separators ≤ key
	for lo < hi {
		mid := (lo + hi) / 2
		cell, err := pg.Cell(mid)
		if err != nil {
			return 0, err
		}
		sep, child, err := decodeInnerCell(cell)
		if err != nil {
			return 0, err
		}
		_ = child
		if bytes.Compare(sep, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return pg.Next(), nil
	}
	cell, err := pg.Cell(lo - 1)
	if err != nil {
		return 0, err
	}
	_, child, err := decodeInnerCell(cell)
	return child, err
}

// leafSearch finds the slot of key in a leaf, or the slot where it would be
// inserted; exact reports a hit.
func leafSearch(pg *Page, key []byte) (int, bool, error) {
	n := pg.NumSlots()
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		cell, err := pg.Cell(mid)
		if err != nil {
			return 0, false, err
		}
		k, _, err := decodeLeafCell(cell)
		if err != nil {
			return 0, false, err
		}
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true, nil
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// --- mutation ------------------------------------------------------------

// Put stores key→val, overwriting any existing value.
func (t *BTree) Put(key, val []byte) error { return t.put(key, val, true) }

// Insert stores key→val, failing with ErrDupKey if the key exists.
func (t *BTree) Insert(key, val []byte) error { return t.put(key, val, false) }

func (t *BTree) put(key, val []byte, overwrite bool) error {
	if len(leafCell(key, val)) > MaxCellSize {
		return fmt.Errorf("%w: key %d val %d bytes", ErrKeyTooBig, len(key), len(val))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var path []PageID
	leafID, err := t.descend(key, &path)
	if err != nil {
		return err
	}
	pg, err := t.bp.Fetch(leafID)
	if err != nil {
		return err
	}
	cells, err := nodeCells(pg)
	if err != nil {
		t.bp.Unpin(leafID, false)
		return err
	}
	idx, exact, err := leafSearch(pg, key)
	if err != nil {
		t.bp.Unpin(leafID, false)
		return err
	}
	if exact && !overwrite {
		t.bp.Unpin(leafID, false)
		return fmt.Errorf("%w: %q", ErrDupKey, key)
	}
	newCell := leafCell(key, val)
	if exact {
		cells[idx] = newCell
	} else {
		cells = append(cells, nil)
		copy(cells[idx+1:], cells[idx:])
		cells[idx] = newCell
	}
	if cellsSize(cells) <= nodeCapacity {
		err := rewriteNode(pg, cells)
		t.bp.Unpin(leafID, true)
		return err
	}
	// Split the leaf.
	left, right, sep, err := t.splitNode(pg, cells)
	t.bp.Unpin(leafID, true)
	if err != nil {
		return err
	}
	return t.insertSeparator(path, sep, left, right)
}

// splitNode distributes cells between pg (left) and a fresh right sibling,
// returning the separator (first key of the right node).
func (t *BTree) splitNode(pg *Page, cells [][]byte) (left, right PageID, sep []byte, err error) {
	half := len(cells) / 2
	rightPg, err := t.bp.Alloc(pg.Kind())
	if err != nil {
		return 0, 0, nil, err
	}
	defer t.bp.Unpin(rightPg.ID, true)
	// Leaf chain: right takes left's old successor; left points to right.
	if pg.Kind() == KindBTreeLeaf {
		rightPg.SetNext(pg.Next())
	}
	if err := rewriteNode(rightPg, cells[half:]); err != nil {
		return 0, 0, nil, err
	}
	if err := rewriteNode(pg, cells[:half]); err != nil {
		return 0, 0, nil, err
	}
	if pg.Kind() == KindBTreeLeaf {
		pg.SetNext(rightPg.ID)
	}
	var firstKey []byte
	cell0, err := rightPg.Cell(0)
	if err != nil {
		return 0, 0, nil, err
	}
	if pg.Kind() == KindBTreeLeaf {
		k, _, derr := decodeLeafCell(cell0)
		if derr != nil {
			return 0, 0, nil, derr
		}
		firstKey = append([]byte(nil), k...)
	} else {
		// Inner split: the separator is *moved up*, and the right node's
		// leftmost child link becomes that cell's child.
		k, child, derr := decodeInnerCell(cell0)
		if derr != nil {
			return 0, 0, nil, derr
		}
		firstKey = append([]byte(nil), k...)
		rightPg.SetNext(child)
		rest, derr := nodeCells(rightPg)
		if derr != nil {
			return 0, 0, nil, derr
		}
		if err := rewriteNode(rightPg, rest[1:]); err != nil {
			return 0, 0, nil, err
		}
	}
	return pg.ID, rightPg.ID, firstKey, nil
}

// insertSeparator inserts (sep → right) into the parent chain after a split
// of the node whose path of ancestors is given (root first). If the path is
// empty, the split node was the root and a new root is created.
func (t *BTree) insertSeparator(path []PageID, sep []byte, left, right PageID) error {
	if len(path) == 0 {
		newRoot, err := t.bp.Alloc(KindBTreeInner)
		if err != nil {
			return err
		}
		newRoot.SetNext(left)
		if _, err := newRoot.InsertCell(innerCell(sep, right)); err != nil {
			t.bp.Unpin(newRoot.ID, true)
			return err
		}
		t.root = newRoot.ID
		t.bp.Unpin(newRoot.ID, true)
		return nil
	}
	parentID := path[len(path)-1]
	pg, err := t.bp.Fetch(parentID)
	if err != nil {
		return err
	}
	cells, err := nodeCells(pg)
	if err != nil {
		t.bp.Unpin(parentID, false)
		return err
	}
	// Find insert position among separators.
	pos := 0
	for pos < len(cells) {
		k, _, err := decodeInnerCell(cells[pos])
		if err != nil {
			t.bp.Unpin(parentID, false)
			return err
		}
		if bytes.Compare(k, sep) > 0 {
			break
		}
		pos++
	}
	cells = append(cells, nil)
	copy(cells[pos+1:], cells[pos:])
	cells[pos] = innerCell(sep, right)
	if cellsSize(cells) <= nodeCapacity {
		err := rewriteNode(pg, cells)
		t.bp.Unpin(parentID, true)
		return err
	}
	l, r, upSep, err := t.splitNode(pg, cells)
	t.bp.Unpin(parentID, true)
	if err != nil {
		return err
	}
	return t.insertSeparator(path[:len(path)-1], upSep, l, r)
}

// Delete removes key. It returns ErrKeyNotFound if absent. Underfull nodes
// are not rebalanced.
func (t *BTree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leafID, err := t.descend(key, nil)
	if err != nil {
		return err
	}
	pg, err := t.bp.Fetch(leafID)
	if err != nil {
		return err
	}
	idx, exact, err := leafSearch(pg, key)
	if err != nil {
		t.bp.Unpin(leafID, false)
		return err
	}
	if !exact {
		t.bp.Unpin(leafID, false)
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	cells, err := nodeCells(pg)
	if err != nil {
		t.bp.Unpin(leafID, false)
		return err
	}
	cells = append(cells[:idx], cells[idx+1:]...)
	err = rewriteNode(pg, cells)
	t.bp.Unpin(leafID, true)
	return err
}

// --- iteration -----------------------------------------------------------

// An Iter is a forward iterator over leaf entries. Use Seek/First then Next;
// Valid reports whether Key/Value may be called.
type Iter struct {
	t     *BTree
	leaf  PageID
	idx   int
	key   []byte
	val   []byte
	valid bool
	err   error
}

// Seek positions the iterator at the first entry with key ≥ start.
func (t *BTree) Seek(start []byte) *Iter {
	it := &Iter{t: t}
	t.mu.RLock()
	defer t.mu.RUnlock()
	leafID, err := t.descend(start, nil)
	if err != nil {
		it.err = err
		return it
	}
	pg, err := t.bp.Fetch(leafID)
	if err != nil {
		it.err = err
		return it
	}
	idx, _, err := leafSearch(pg, start)
	t.bp.Unpin(leafID, false)
	if err != nil {
		it.err = err
		return it
	}
	it.leaf, it.idx = leafID, idx
	it.load()
	return it
}

// First positions the iterator at the smallest key.
func (t *BTree) First() *Iter { return t.Seek(nil) }

// load reads the current entry, advancing across leaf boundaries.
func (it *Iter) load() {
	it.valid = false
	for {
		pg, err := it.t.bp.Fetch(it.leaf)
		if err != nil {
			it.err = err
			return
		}
		if it.idx < pg.NumSlots() {
			cell, err := pg.Cell(it.idx)
			if err != nil {
				it.t.bp.Unpin(it.leaf, false)
				it.err = err
				return
			}
			k, v, err := decodeLeafCell(cell)
			if err != nil {
				it.t.bp.Unpin(it.leaf, false)
				it.err = err
				return
			}
			it.key = append(it.key[:0], k...)
			it.val = append(it.val[:0], v...)
			it.t.bp.Unpin(it.leaf, false)
			it.valid = true
			return
		}
		next := pg.Next()
		it.t.bp.Unpin(it.leaf, false)
		if next == InvalidPage {
			return
		}
		it.leaf, it.idx = next, 0
	}
}

// Valid reports whether the iterator points at an entry.
func (it *Iter) Valid() bool { return it.valid && it.err == nil }

// Err returns the first error encountered, if any.
func (it *Iter) Err() error { return it.err }

// Key returns the current key (valid until the next call to Next).
func (it *Iter) Key() []byte { return it.key }

// Value returns the current value (valid until the next call to Next).
func (it *Iter) Value() []byte { return it.val }

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.Valid() {
		return
	}
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	it.idx++
	it.load()
}

// ScanFrom calls fn for every entry whose key is ≥ from and begins with
// prefix (nil = every key), in key order, stopping early if fn returns
// false. The walk ends on the first key outside the prefix, so the entry
// that ends it is never handed to fn.
func (t *BTree) ScanFrom(from, prefix []byte, fn func(key, val []byte) bool) error {
	it := t.Seek(from)
	for ; it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}

// Len counts the entries (a full scan; used by tests and size accounting).
func (t *BTree) Len() (int, error) {
	n := 0
	it := t.First()
	for ; it.Valid(); it.Next() {
		n++
	}
	return n, it.Err()
}
