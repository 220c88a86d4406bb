package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// A btree is a B+tree over byte-string keys and values, stored in pages.
// Inner nodes hold separator keys and child links; all values live in the
// leaf level, which is chained left-to-right for range scans. Keys are
// unique and the tree only grows: an entry, once inserted, is never changed
// or removed — the provenance relation it stores is append-only — so every
// leaf holds at least one entry, but the root leaf of an empty tree.
//
// The tree is safe for concurrent readers with a single writer, serialized
// internally.
type btree struct {
	mu   sync.RWMutex
	bp   *bufferPool
	root pageID
	w    leafWriter // the writer's scratch space; mu held for writing
	path []pageID   // the inner nodes an insert descended through, root first
	// Iterators ScanFrom is done with, and the readers of point reads, kept
	// with their buffers: a read then allocates nothing of its own.
	iters   idle[*cursor]
	readers idle[*runReader]
}

// An idle list keeps values a read is done with — iterators, readers,
// buffers — for the next read: as many as reads ran at once, up to
// idleMax. A sync.Pool would keep what the collector last left it.
type idle[T any] chan T

// idleMax bounds an idle list: more than the reads a tree serves at once on
// a few cores, few enough that a burst leaves little behind (an iterator
// keeps a run of at most a page and a key).
const idleMax = 8

// get takes an idle value, or the zero T if there is none.
func (l idle[T]) get() (v T) {
	select {
	case v = <-l:
	default:
	}
	return v
}

// put keeps v if fewer than idleMax values are idle.
func (l idle[T]) put(v T) {
	select {
	case l <- v:
	default:
	}
}

// Errors returned by B+tree operations.
var (
	errKeyNotFound = errors.New("relstore: key not found")
	errDupKey      = errors.New("relstore: duplicate key")
	ErrKeyTooBig   = errors.New("relstore: key/value too large for page")
)

// newBTree creates an empty tree, allocating its root leaf.
func newBTree(bp *bufferPool) (*btree, error) {
	root, err := bp.alloc(kindBTreeLeaf)
	if err != nil {
		return nil, err
	}
	bp.unpin(root.ID, true)
	return openBTree(bp, root.ID), nil
}

// openBTree attaches to an existing tree by root page id.
func openBTree(bp *bufferPool, root pageID) *btree {
	return &btree{bp: bp, root: root, iters: make(idle[*cursor], idleMax), readers: make(idle[*runReader], idleMax)}
}

// Root returns the current root page id (it changes when the root splits;
// persist it after mutations).
func (t *btree) Root() pageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// --- leaf runs -----------------------------------------------------------
//
// A leaf page's cell is a run of up to maxRunEntries entries in key order,
// front-coded: each entry is
//
//	uvarint shared | uvarint suffix-len | suffix | uvarint value-len | value
//
// where shared is the length of the prefix its key has in common with the
// previous key of the run (0 for the first, whose suffix is its whole key).
// The slots of a leaf are in order of their runs' first keys, so a search is
// a binary search over first keys and then a walk of one run, and an insert
// writes one run anew (see leafWriter). Runs are short because a walk is
// linear and every insert rewrites one: at 16 entries a run already stores
// 15 of 16 keys as a suffix, and a longer one would save at most the last
// sixteenth.

const maxRunEntries = 16

// MaxEntrySize is the largest entry a tree accepts, as entrySize measures it:
// every entry must fit a run, hence a cell, of its own, and its key an inner
// cell as a separator — whose child link takes four bytes where an entry
// spends at least two besides its key.
const MaxEntrySize = maxCellSize - 2

// entrySize returns the bytes an entry with a key and value of the given
// lengths takes as the only entry of a run.
func entrySize(keyLen, valLen int) int {
	return 1 + uvarintLen(keyLen) + keyLen + uvarintLen(valLen) + valLen
}

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// appendRunEntry appends the entry key→val to a run whose last key is prev
// (nil for the first entry).
func appendRunEntry(run, prev, key, val []byte) []byte {
	shared := 0
	for shared < len(prev) && shared < len(key) && prev[shared] == key[shared] {
		shared++
	}
	run = binary.AppendUvarint(run, uint64(shared))
	run = binary.AppendUvarint(run, uint64(len(key)-shared))
	run = append(run, key[shared:]...)
	run = binary.AppendUvarint(run, uint64(len(val)))
	return append(run, val...)
}

// What a run that is not one can get wrong; all are errCorrupt.
var (
	errRunEmpty   = fmt.Errorf("%w: leaf run with no entry", errCorrupt)
	errRunLong    = fmt.Errorf("%w: leaf run of more than %d entries", errCorrupt, maxRunEntries)
	errRunShared  = fmt.Errorf("%w: leaf run entry shares more than the previous key", errCorrupt)
	errRunBounds  = fmt.Errorf("%w: leaf run entry runs past its cell", errCorrupt)
	errRunOrder   = fmt.Errorf("%w: leaf run keys not ascending", errCorrupt)
	errRunNoFirst = fmt.Errorf("%w: leaf run's first entry shares a prefix with nothing", errCorrupt)
)

// A runReader decodes the entries of one run in order. key is rebuilt in
// place from entry to entry, so it is valid until the next call of next; val
// aliases the cell.
type runReader struct {
	rest []byte // the cell's bytes not yet decoded
	n    int    // entries decoded
	key  []byte
	val  []byte
}

// reset starts r over cell, keeping its key buffer.
func (r *runReader) reset(cell []byte) {
	r.rest, r.n, r.key, r.val = cell, 0, r.key[:0], nil
}

// next decodes the next entry into r.key and r.val; ok=false at the end of
// the run. It never reads outside the cell, whatever the cell holds.
func (r *runReader) next() (ok bool, err error) {
	if len(r.rest) == 0 {
		if r.n == 0 {
			return false, errRunEmpty
		}
		return false, nil
	}
	if r.n == maxRunEntries {
		return false, errRunLong
	}
	if r.n == 0 && r.rest[0] != 0 {
		return false, errRunNoFirst // as runFirstKey reads it
	}
	shared, a := binary.Uvarint(r.rest)
	if a <= 0 {
		return false, errRunBounds
	}
	if shared > uint64(len(r.key)) {
		return false, errRunShared
	}
	suffixLen, b := binary.Uvarint(r.rest[a:])
	if b <= 0 || suffixLen > uint64(len(r.rest)-a-b) {
		return false, errRunBounds
	}
	suffix := r.rest[a+b : a+b+int(suffixLen)]
	tail := r.rest[a+b+int(suffixLen):]
	valLen, c := binary.Uvarint(tail)
	if c <= 0 || valLen > uint64(len(tail)-c) {
		return false, errRunBounds
	}
	// The key must sort after its predecessor: past the shared prefix it
	// either continues where that one ended or differs upwards.
	if r.n > 0 && (len(suffix) == 0 || int(shared) < len(r.key) && suffix[0] <= r.key[shared]) {
		return false, errRunOrder
	}
	r.key = append(r.key[:shared], suffix...)
	r.val = tail[c : c+int(valLen)]
	r.rest = tail[c+int(valLen):]
	r.n++
	return true, nil
}

// runFirstKey returns the first key of a run, aliasing the cell.
func runFirstKey(cell []byte) ([]byte, error) {
	if len(cell) == 0 {
		return nil, errRunEmpty
	}
	if cell[0] != 0 {
		return nil, errRunNoFirst
	}
	keyLen, n := binary.Uvarint(cell[1:])
	if n <= 0 || keyLen > uint64(len(cell)-1-n) {
		return nil, errRunBounds
	}
	return cell[1+n : 1+n+int(keyLen)], nil
}

// --- inner cells ---------------------------------------------------------

func innerCell(key []byte, child pageID) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(key)))
	buf = append(buf, key...)
	var c [4]byte
	binary.BigEndian.PutUint32(c[:], uint32(child))
	return append(buf, c[:]...)
}

func decodeInnerCell(cell []byte) (key []byte, child pageID, err error) {
	kl, n := binary.Uvarint(cell)
	if n <= 0 || uint64(len(cell)-n) < kl+4 {
		return nil, 0, fmt.Errorf("relstore: corrupt inner cell")
	}
	key = cell[n : n+int(kl)]
	child = pageID(binary.BigEndian.Uint32(cell[n+int(kl):]))
	return key, child, nil
}

// --- node in-memory form -------------------------------------------------

// nodeCells reads all cells of an inner node in slot order (which the
// tree maintains as key order), copying them out of the page buffer.
func nodeCells(pg *page) ([][]byte, error) {
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
func rewriteNode(pg *page, cells [][]byte) error {
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

const nodeCapacity = PageSize - headerSize

// --- search --------------------------------------------------------------

// Get returns a copy of the value stored under key.
func (t *btree) Get(key []byte) ([]byte, error) {
	var out []byte
	found, err := t.view(key, func(val []byte) { out = bytes.Clone(val) })
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", errKeyNotFound, key)
	}
	return out, nil
}

// View reports whether key is present and, if it is, hands visit the stored
// value in place, while its leaf is pinned: visit must copy what it keeps
// and must not call into the tree.
func (t *btree) view(key []byte, visit func(val []byte)) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.find(key, visit)
}

// Has reports whether key is present. It compares keys only: the value is
// neither decoded nor copied.
func (t *btree) Has(key []byte) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.find(key, nil)
}

// find descends to key's leaf and reports whether key is there; on a hit
// with visit non-nil, visit sees the stored value while the leaf is still
// pinned (it must copy what it keeps). Caller holds mu.
func (t *btree) find(key []byte, visit func(val []byte)) (bool, error) {
	leafID, err := t.descend(key, nil)
	if err != nil {
		return false, err
	}
	pg, err := t.bp.fetch(leafID)
	if err != nil {
		return false, err
	}
	defer t.bp.unpin(leafID, false)
	r := t.readers.get()
	if r == nil {
		r = new(runReader)
	}
	defer func() {
		r.reset(nil) // keeps the key buffer, lets go of the page
		t.readers.put(r)
	}()
	_, _, exact, err := leafSearch(pg, key, r)
	if err != nil || !exact || visit == nil {
		return exact, err
	}
	visit(r.val)
	return true, nil
}

// Last returns a copy of the largest key, ok=false on an empty tree: one
// rightmost descent, O(height) pages. Nothing is ever deleted, so the
// rightmost leaf is empty only when it is the root of an empty tree.
func (t *btree) last() (key []byte, ok bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := t.root
	for {
		pg, err := t.bp.fetch(id)
		if err != nil {
			return nil, false, err
		}
		if pg.Kind() == kindBTreeLeaf {
			key, ok, err := lastInLeaf(pg, id == t.root)
			t.bp.unpin(id, false)
			return key, ok, err
		}
		// An inner node has a cell for every split below it, and its last
		// links the rightmost child.
		cell, err := pg.Cell(pg.NumSlots() - 1)
		if err == nil {
			_, id, err = decodeInnerCell(cell)
		}
		t.bp.unpin(pg.ID, false)
		if err != nil {
			return nil, false, err
		}
	}
}

// lastInLeaf returns a copy of the last key of the pinned leaf pg, ok=false
// if it is empty, which only the root may be.
func lastInLeaf(pg *page, root bool) ([]byte, bool, error) {
	n := pg.NumSlots()
	if n == 0 {
		if !root {
			return nil, false, fmt.Errorf("%w: empty leaf %d below the root", errCorrupt, pg.ID)
		}
		return nil, false, nil
	}
	cell, err := pg.Cell(n - 1)
	if err != nil {
		return nil, false, err
	}
	var r runReader
	r.reset(cell)
	for more := true; more; {
		if more, err = r.next(); err != nil {
			return nil, false, err
		}
	}
	return r.key, true, nil
}

// descend walks from the root to the leaf that should contain key. If path
// is non-nil, it is filled with the inner node ids visited (root first).
func (t *btree) descend(key []byte, path *[]pageID) (pageID, error) {
	id := t.root
	for {
		pg, err := t.bp.fetch(id)
		if err != nil {
			return 0, err
		}
		if pg.Kind() == kindBTreeLeaf {
			t.bp.unpin(id, false)
			return id, nil
		}
		if path != nil {
			*path = append(*path, id)
		}
		child, err := innerChild(pg, key)
		t.bp.unpin(id, false)
		if err != nil {
			return 0, err
		}
		id = child
	}
}

// innerChild picks the child covering key: child 0 is the header link; keys
// ≥ separator i go to child i+1.
func innerChild(pg *page, key []byte) (pageID, error) {
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

// leafSearch finds where key is, or would be inserted, in a leaf: the slot of
// its run and its index among that run's entries; exact reports a hit. It
// leaves r on the first entry of the run that is not below key, so on a hit
// r.val is the stored value; at == r.n means every entry of the run is
// below key (which then sorts before the next run's first key). An empty
// leaf answers 0, 0.
func leafSearch(pg *page, key []byte, r *runReader) (slot, at int, exact bool, err error) {
	if pg.NumSlots() == 0 {
		return 0, 0, false, nil
	}
	if slot, err = runOf(pg, key); err != nil {
		return 0, 0, false, err
	}
	cell, err := pg.Cell(slot)
	if err != nil {
		return 0, 0, false, err
	}
	r.reset(cell)
	for {
		more, err := r.next()
		if err != nil || !more {
			return slot, r.n, false, err
		}
		if c := bytes.Compare(r.key, key); c >= 0 {
			return slot, r.n - 1, c == 0, nil
		}
	}
}

// runOf returns the slot of the run key falls in, in a leaf: the last run
// whose first key is ≤ key, or the first run if there is none (0 for an
// empty leaf). Every key of the runs after it sorts after key.
func runOf(pg *page, key []byte) (int, error) {
	lo, hi := 0, pg.NumSlots() // count of runs whose first key is ≤ key
	for lo < hi {
		mid := (lo + hi) / 2
		cell, err := pg.Cell(mid)
		if err != nil {
			return 0, err
		}
		first, err := runFirstKey(cell)
		if err != nil {
			return 0, err
		}
		if bytes.Compare(first, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0), nil
}

// --- mutation ------------------------------------------------------------

// A leafWriter is the scratch space in which the tree's one writer inserts
// into a leaf: the entries of the run the new one falls in are decoded off
// the pinned page and re-encoded with it, and the runs that result are
// written into the page's free gap, the first in place of the old run's slot
// and any others in new slots after it. Only when the gap is too small, or
// the leaf splits, is the page copied aside and rebuilt from its live cells.
// Everything is reused from insert to insert.
type leafWriter struct {
	old   page       // the leaf as it was, while its page is rebuilt
	rd    runReader  // over the run being extended
	ents  []runEntry // its entries; their values alias its cell on the page
	keys  []byte     // backs their keys
	enc   []byte     // the run re-encoded, as one run or several
	ends  []int      // where each of those ends in enc
	cells [][]byte   // the leaf's cells after the insert, aliasing old and enc
}

// A runEntry is one decoded entry of a run.
type runEntry struct{ key, val []byte }

// load finds where key goes in the leaf pg, as leafSearch does — the slot of
// its run and its index among the run's entries, exact on a hit — in the one
// pass that decodes the run's entries into w.ents. Their values alias pg's
// cell, so they stay valid while new cells go into the gap, not once the
// page is rebuilt.
func (w *leafWriter) load(pg *page, key []byte) (slot, at int, exact bool, err error) {
	w.ents, w.keys, w.ends = w.ents[:0], w.keys[:0], w.ends[:0]
	if pg.NumSlots() == 0 {
		return 0, 0, false, nil
	}
	if slot, err = runOf(pg, key); err != nil {
		return 0, 0, false, err
	}
	cell, err := pg.Cell(slot)
	if err != nil {
		return 0, 0, false, err
	}
	w.rd.reset(cell)
	at = -1
	for {
		more, err := w.rd.next()
		if err != nil {
			return 0, 0, false, err
		}
		if !more {
			break
		}
		if at < 0 {
			if c := bytes.Compare(w.rd.key, key); c == 0 {
				return slot, len(w.ents), true, nil
			} else if c > 0 {
				at = len(w.ents)
			}
		}
		w.keys = append(w.keys, w.rd.key...)
		w.ends = append(w.ends, len(w.keys))
		w.ents = append(w.ents, runEntry{val: w.rd.val})
	}
	if at < 0 {
		at = len(w.ents)
	}
	start := 0
	for i, end := range w.ends {
		w.ents[i].key = w.keys[start:end:end]
		start = end
	}
	return slot, at, false, nil
}

// pack re-encodes w.ents into w.enc, as one run or with a new run starting at
// each index in cuts. It reports whether every run keeps within a run's
// bounds, maxRunEntries entries and maxCellSize bytes.
func (w *leafWriter) pack(cuts ...int) bool {
	w.enc, w.ends = w.enc[:0], w.ends[:0]
	start := 0
	for i := 0; i <= len(cuts); i++ {
		end := len(w.ents)
		if i < len(cuts) {
			end = cuts[i]
		}
		if end == start {
			continue
		}
		if end-start > maxRunEntries {
			return false
		}
		from := len(w.enc)
		var prev []byte
		for _, e := range w.ents[start:end] {
			w.enc = appendRunEntry(w.enc, prev, e.key, e.val)
			prev = e.key
		}
		if len(w.enc)-from > maxCellSize {
			return false
		}
		w.ends = append(w.ends, len(w.enc))
		start = end
	}
	return true
}

// splice lists in w.cells the cells of the old leaf with the del cells from
// slot on replaced by the packed runs.
func (w *leafWriter) splice(slot, del int) error {
	w.cells = w.cells[:0]
	for i, n := 0, w.old.NumSlots(); i <= n; i++ {
		if i == slot {
			start := 0
			for _, end := range w.ends {
				w.cells = append(w.cells, w.enc[start:end])
				start = end
			}
		}
		if i == n || i >= slot && i < slot+del {
			continue
		}
		cell, err := w.old.Cell(i)
		if err != nil {
			return err
		}
		w.cells = append(w.cells, cell)
	}
	return nil
}

// Insert stores key→val, failing with errDupKey if the key exists.
func (t *btree) Insert(key, val []byte) error {
	if entrySize(len(key), len(val)) > MaxEntrySize {
		return fmt.Errorf("%w: key %d val %d bytes", ErrKeyTooBig, len(key), len(val))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.path = t.path[:0]
	leafID, err := t.descend(key, &t.path)
	if err != nil {
		return err
	}
	pg, err := t.bp.fetch(leafID)
	if err != nil {
		return err
	}
	right, sep, dirty, err := t.insertLeaf(pg, key, val)
	t.bp.unpin(leafID, dirty)
	if err != nil || right == invalidPage {
		return err
	}
	return t.insertSeparator(t.path, sep, leafID, right)
}

// insertLeaf stores key→val in the leaf pg by re-encoding the one run it
// falls in. The runs that result go into the page's free gap, the first in
// place of the old run's slot; its old bytes stay dead on the page. When the
// gap is too small for them the page is rebuilt from its live cells, and
// when those no longer fit a page the leaf is split: right is then the new
// sibling and sep its first key, for the parent. Whether and where a leaf
// splits is decided on its live cells alone, so which entries each leaf and
// run holds does not depend on where cells lie within a page.
func (t *btree) insertLeaf(pg *page, key, val []byte) (right pageID, sep []byte, dirty bool, err error) {
	w := &t.w
	slot, at, exact, err := w.load(pg, key)
	if err != nil {
		return 0, nil, false, err
	}
	if exact {
		return 0, nil, false, fmt.Errorf("%w: %q", errDupKey, key)
	}
	w.ents = slices.Insert(w.ents, at, runEntry{key, val})
	// A run that has outgrown its bounds is cut: after the old entries if
	// the new one follows them all (keys that arrive in order leave full
	// runs behind), else in half, and — when a half is still too large,
	// which takes entries of hundreds of bytes — around the new entry:
	// what comes before and after it fitted one run and so fits two, and
	// any entry fits a run of its own.
	n := len(w.ents)
	appended := at == n-1
	if !w.pack() && !(appended && w.pack(n-1)) && !w.pack(n/2) {
		w.pack(at, at+1)
	}
	nslots := pg.NumSlots()
	del := min(1, nslots)
	size := pg.liveBytes() + len(w.enc) + len(w.ends)*slotSize
	if del == 1 {
		_, oldLen := pg.slot(slot)
		size -= oldLen + slotSize
	}
	if size <= nodeCapacity {
		if pg.gap() >= len(w.enc)+(len(w.ends)-del)*slotSize {
			start := 0
			for i, end := range w.ends {
				pg.putCell(slot+i, w.enc[start:end], i < del)
				start = end
			}
			return 0, nil, true, nil
		}
		w.old = *pg
		if err := w.splice(slot, del); err != nil {
			return 0, nil, false, err
		}
		return 0, nil, true, rewriteNode(pg, w.cells)
	}

	rightPg, err := t.bp.alloc(kindBTreeLeaf)
	if err != nil {
		return 0, nil, false, err
	}
	defer t.bp.unpin(rightPg.ID, true)
	rightPg.SetNext(pg.Next())
	if appended && pg.Next() == invalidPage && slot+del == nslots {
		// The new entry is the last of the tree: the split falls where the
		// insert is. The full leaf stays as it is and the entry opens the
		// next, so keys that arrive in order fill every leaf.
		w.ents = w.ents[at:]
		w.pack()
		if _, err := rightPg.InsertCell(w.enc); err != nil {
			return 0, nil, false, err
		}
		pg.SetNext(rightPg.ID)
		return rightPg.ID, bytes.Clone(key), true, nil
	}
	// Otherwise in half by bytes, between two runs. No cell is larger than a
	// quarter page, so the left half is within that of the middle; the cells
	// are at most the page's own and three runs for one, so the right half
	// fits a page too.
	w.old = *pg
	if err := w.splice(slot, del); err != nil {
		return 0, nil, false, err
	}
	k, left := 0, 0
	for ; k < len(w.cells)-1; k++ {
		c := len(w.cells[k]) + slotSize
		if k > 0 && left+c > size/2 {
			break
		}
		left += c
	}
	if left > nodeCapacity || size-left > nodeCapacity {
		return 0, nil, false, fmt.Errorf("relstore: leaf %d of %d bytes does not split in two", pg.ID, size)
	}
	first, err := runFirstKey(w.cells[k])
	if err != nil {
		return 0, nil, false, err
	}
	if err := rewriteNode(rightPg, w.cells[k:]); err != nil {
		return 0, nil, false, err
	}
	if err := rewriteNode(pg, w.cells[:k]); err != nil {
		return 0, nil, false, err
	}
	pg.SetNext(rightPg.ID)
	return rightPg.ID, bytes.Clone(first), true, nil
}

// splitNode distributes the cells of an inner node between pg (left) and a
// fresh right sibling. The separator — the first key of the right half — is
// moved up, not copied: the child it led to becomes the right node's
// leftmost.
func (t *btree) splitNode(pg *page, cells [][]byte) (left, right pageID, sep []byte, err error) {
	half := len(cells) / 2
	rightPg, err := t.bp.alloc(kindBTreeInner)
	if err != nil {
		return 0, 0, nil, err
	}
	defer t.bp.unpin(rightPg.ID, true)
	k, child, err := decodeInnerCell(cells[half])
	if err != nil {
		return 0, 0, nil, err
	}
	rightPg.SetNext(child)
	if err := rewriteNode(rightPg, cells[half+1:]); err != nil {
		return 0, 0, nil, err
	}
	if err := rewriteNode(pg, cells[:half]); err != nil {
		return 0, 0, nil, err
	}
	return pg.ID, rightPg.ID, k, nil
}

// insertSeparator inserts (sep → right) into the parent chain after a split
// of the node whose path of ancestors is given (root first). If the path is
// empty, the split node was the root and a new root is created. A parent
// with room takes the new cell into its gap, in the slot of its key's place:
// an inner node only gains cells, so its gap is its free space, and it is
// rebuilt only at its own split.
func (t *btree) insertSeparator(path []pageID, sep []byte, left, right pageID) error {
	if len(path) == 0 {
		newRoot, err := t.bp.alloc(kindBTreeInner)
		if err != nil {
			return err
		}
		newRoot.SetNext(left)
		if _, err := newRoot.InsertCell(innerCell(sep, right)); err != nil {
			t.bp.unpin(newRoot.ID, true)
			return err
		}
		t.root = newRoot.ID
		t.bp.unpin(newRoot.ID, true)
		return nil
	}
	parentID := path[len(path)-1]
	pg, err := t.bp.fetch(parentID)
	if err != nil {
		return err
	}
	// Find insert position among separators.
	pos, n := 0, pg.NumSlots()
	for ; pos < n; pos++ {
		cell, err := pg.Cell(pos)
		if err != nil {
			t.bp.unpin(parentID, false)
			return err
		}
		k, _, err := decodeInnerCell(cell)
		if err != nil {
			t.bp.unpin(parentID, false)
			return err
		}
		if bytes.Compare(k, sep) > 0 {
			break
		}
	}
	cell := innerCell(sep, right)
	if pg.gap() >= len(cell)+slotSize {
		pg.putCell(pos, cell, false)
		t.bp.unpin(parentID, true)
		return nil
	}
	cells, err := nodeCells(pg)
	if err != nil {
		t.bp.unpin(parentID, false)
		return err
	}
	cells = slices.Insert(cells, pos, cell)
	l, r, upSep, err := t.splitNode(pg, cells)
	t.bp.unpin(parentID, true)
	if err != nil {
		return err
	}
	return t.insertSeparator(path[:len(path)-1], upSep, l, r)
}

// --- iteration -----------------------------------------------------------

// A cursor is a forward iterator over leaf entries. Use seek then Next;
// Valid reports whether Key/Value may be called. It walks a copy of one run
// at a time, taken under one pin of the leaf: within a run Next touches
// neither the tree's lock nor the buffer pool.
type cursor struct {
	t     *btree
	leaf  pageID
	slot  int       // of the run being walked
	run   []byte    // that run, copied off its page
	rd    runReader // over run; rd.key is rebuilt in place entry by entry
	valid bool
	err   error
}

// Seek positions the iterator at the first entry with key ≥ start.
func (t *btree) seek(start []byte) *cursor {
	it := &cursor{t: t}
	it.seek(start)
	return it
}

// seek positions it, whatever it held, at the first entry with key ≥ start,
// keeping its buffers. The run start falls in is chosen by the first keys
// on the pinned leaf and copied off it once; only the copy is walked.
func (it *cursor) seek(start []byte) {
	t := it.t
	it.slot, it.valid, it.err = 0, false, nil
	t.mu.RLock()
	defer t.mu.RUnlock()
	if it.leaf, it.err = t.descend(start, nil); it.err != nil {
		return
	}
	pg, err := t.bp.fetch(it.leaf)
	if err != nil {
		it.err = err
		return
	}
	if it.slot, it.err = runOf(pg, start); it.err == nil {
		it.copyRun(pg)
	}
	t.bp.unpin(it.leaf, false)
	if it.err != nil {
		return
	}
	// The runs after this one begin above start, so the walk ends in this
	// run or on the first entry after it. A leaf with no run is the root of
	// an empty tree, which leaves it invalid.
	for it.step(); it.Valid() && bytes.Compare(it.rd.key, start) < 0; it.step() {
	}
}

// loadRun copies the run at it.slot off its leaf, moving on through the leaf
// chain while there is none there; it.valid reports whether it found one.
// Caller holds t.mu.
func (it *cursor) loadRun() {
	it.valid = false
	for {
		pg, err := it.t.bp.fetch(it.leaf)
		if err != nil {
			it.err = err
			return
		}
		if it.copyRun(pg) {
			it.t.bp.unpin(it.leaf, false)
			return
		}
		next := pg.Next()
		it.t.bp.unpin(it.leaf, false)
		if next == invalidPage {
			return
		}
		it.leaf, it.slot = next, 0
	}
}

// copyRun copies the run at it.slot off pg, the pinned leaf it.leaf, and
// starts it.rd over the copy; false if the leaf has no run there.
func (it *cursor) copyRun(pg *page) bool {
	if it.slot >= pg.NumSlots() {
		return false
	}
	cell, err := pg.Cell(it.slot)
	it.run = append(it.run[:0], cell...)
	it.rd.reset(it.run)
	it.valid, it.err = err == nil, err
	return true
}

// step moves to the next entry of the loaded run, or of the runs after it.
// Caller holds t.mu.
func (it *cursor) step() {
	for it.valid {
		if it.valid, it.err = it.rd.next(); it.valid || it.err != nil {
			return
		}
		it.slot++
		it.loadRun()
	}
}

// Valid reports whether the iterator points at an entry.
func (it *cursor) Valid() bool { return it.valid && it.err == nil }

// Err returns the first error encountered, if any.
func (it *cursor) Err() error { return it.err }

// Key returns the current key (valid until the next call to Next).
func (it *cursor) Key() []byte { return it.rd.key }

// Value returns the current value (valid until the next call to Next).
func (it *cursor) Value() []byte { return it.rd.val }

// Next advances to the following entry.
func (it *cursor) Next() {
	if !it.Valid() {
		return
	}
	if it.valid, it.err = it.rd.next(); it.valid || it.err != nil {
		return
	}
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	it.slot++
	it.loadRun()
	it.step()
}

// ScanFrom calls fn for every entry whose key is ≥ from and begins with
// prefix (nil = every key), in key order, stopping early if fn returns
// false. The walk ends on the first key outside the prefix, so the entry
// that ends it is never handed to fn.
func (t *btree) scanFrom(from, prefix []byte, fn func(key, val []byte) bool) error {
	it := t.iters.get()
	if it == nil {
		it = &cursor{t: t}
	}
	defer t.iters.put(it)
	it.seek(from)
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
