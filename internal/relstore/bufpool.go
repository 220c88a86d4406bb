package relstore

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// A bufferPool caches pages above the pager with LRU eviction. Pages are
// pinned while in use; only unpinned pages are evictable.
//
// The pool alone decides when a page image may leave memory. Under the
// store's write-ahead log, only inside a logged page group
// (flushGroup): a dirty frame is never a victim, so neither file ever holds
// a page the log does not, and a crash loses the open commit whole. A frame
// dirtied under a log leaves the LRU list until it is written. A commit
// logged as its rows (DB.GroupCommit) leaves its frames dirty — held — and
// those count against the capacity, so the list holds at most the capacity
// less the held frames; the pool is over its capacity by at most the pages
// the open commit dirties, whose batch is in memory already, and back under
// it on the first admit after the next page group. DB keeps the held frames
// to half the pool. Without a log nothing is promised across a crash and
// bulk loads do not commit, so there, and only there, a dirty frame stays
// listed and evicting it writes it.
type bufferPool struct {
	mu     sync.Mutex
	pager  *pager
	cap    int
	frames map[pageID]*frame
	lru    *list.List // of pageID; front = most recently used
	hits   int64
	misses int64
	// dirty counts the dirty frames; held, those of them a commit logged as
	// rows left behind (see hold).
	dirty, held int
	// failed is the error the store failed closed with (see fail), or nil.
	failed error
}

type frame struct {
	page  *page
	pins  int
	dirty bool
	elem  *list.Element // nil while the frame is held for the open commit
}

// errPoolExhausted reports a page that cannot be admitted: the pool is full
// and every frame that could make room is pinned.
var errPoolExhausted = errors.New("relstore: buffer pool exhausted, every frame pinned")

// newBufferPool wraps the pager with a pool of the given capacity (pages).
// A capacity below 8 is raised to 8.
func newBufferPool(p *pager, capacity int) *bufferPool {
	if capacity < 8 {
		capacity = 8
	}
	return &bufferPool{
		pager:  p,
		cap:    capacity,
		frames: make(map[pageID]*frame, capacity),
		lru:    list.New(),
	}
}

// Fetch returns the page pinned; callers must Unpin it when done, passing
// dirty=true if they modified it.
func (bp *bufferPool) fetch(id pageID) (*page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.failed != nil {
		return nil, bp.failed
	}
	if f, ok := bp.frames[id]; ok {
		bp.hits++
		f.pins++
		if f.elem != nil {
			bp.lru.MoveToFront(f.elem)
		}
		return f.page, nil
	}
	bp.misses++
	pg, err := bp.pager.read(id)
	if err != nil {
		return nil, err
	}
	if err := bp.admit(pg); err != nil {
		return nil, err
	}
	return pg, nil
}

// Alloc allocates a fresh page through the pager and admits it pinned and
// dirty.
func (bp *bufferPool) alloc(kind byte) (*page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.failed != nil {
		return nil, bp.failed
	}
	pg, err := bp.pager.alloc(kind)
	if err != nil {
		return nil, err
	}
	if err := bp.admit(pg); err != nil {
		return nil, err
	}
	bp.markDirty(bp.frames[pg.ID])
	return pg, nil
}

// admit inserts a page pinned once, evicting while the list is full. Caller
// holds mu.
func (bp *bufferPool) admit(pg *page) error {
	for bp.lru.Len()+bp.held >= bp.cap {
		victim, err := bp.victim()
		if err != nil {
			return err
		}
		if victim.dirty {
			if err := bp.pager.writeGroup([]*page{victim.page}); err != nil {
				return err
			}
		}
		bp.lru.Remove(victim.elem)
		delete(bp.frames, victim.page.ID)
	}
	f := &frame{page: pg, pins: 1}
	f.elem = bp.lru.PushFront(pg.ID)
	bp.frames[pg.ID] = f
	return nil
}

// victim picks the least recently used frame that may leave the pool: an
// unpinned one. Under a log every listed frame is clean (see markDirty).
func (bp *bufferPool) victim() (*frame, error) {
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		if f := bp.frames[e.Value.(pageID)]; f.pins == 0 {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%w (%d pages)", errPoolExhausted, bp.cap)
}

// markDirty records that the frame's page was modified and, under a log,
// takes it off the list until flushGroup commits it.
func (bp *bufferPool) markDirty(f *frame) {
	if f.dirty {
		return
	}
	f.dirty = true
	bp.dirty++
	if bp.pager.wal != nil {
		bp.lru.Remove(f.elem)
		f.elem = nil
	}
}

// Unpin releases a pin; dirty marks the page modified.
func (bp *bufferPool) unpin(id pageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("relstore: unpin of unpinned page %d", id))
	}
	f.pins--
	if dirty {
		bp.markDirty(f)
	}
}

// flushGroup writes back every dirty page as one group commit
// (pager.writeGroup). Under a log the group — pages and pager
// header — is durable behind one log write and one log fsync, however many
// records dirtied the pages; the data file is written but not fsynced until
// the log is checkpointed (DB.GroupCommit decides when). With no log the
// data file is the only copy and is fsynced here, every time.
func (bp *bufferPool) flushGroup() error {
	if wrote, err := bp.writeGroup(); err != nil || !wrote || bp.pager.wal != nil {
		return err
	}
	return bp.pager.sync()
}

// writeGroup hands every dirty page to the pager as one group and reports
// whether there was any.
func (bp *bufferPool) writeGroup() (bool, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.failed != nil {
		return false, bp.failed
	}
	dirty := make([]*page, 0, bp.dirty)
	for _, f := range bp.frames {
		if f.dirty {
			dirty = append(dirty, f.page)
		}
	}
	if err := bp.pager.writeGroup(dirty); err != nil {
		return false, err
	}
	for _, pg := range dirty {
		f := bp.frames[pg.ID]
		f.dirty = false
		if f.elem == nil {
			f.elem = bp.lru.PushFront(pg.ID)
		}
	}
	bp.dirty, bp.held = 0, 0
	return len(dirty) > 0, nil
}

// dirtyPages returns the number of dirty frames.
func (bp *bufferPool) dirtyPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.dirty
}

// hold keeps every dirty frame in the pool, unwritten, as a commit whose
// rows the log has: from here until the next group they count against the
// capacity.
func (bp *bufferPool) hold() {
	bp.mu.Lock()
	bp.held = bp.dirty
	bp.mu.Unlock()
}

// fail fails the store closed after a commit failed with err: from then on
// every fetch, alloc and write of the pool returns err wrapped in
// ErrCommitFailed, so Close writes nothing. It returns the wrapped error.
func (bp *bufferPool) fail(err error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.failed = fmt.Errorf("%w: %w", ErrCommitFailed, err)
	return bp.failed
}

// err returns the error the store failed closed with, or nil.
func (bp *bufferPool) err() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.failed
}

// Stats returns cache hit/miss counters.
func (bp *bufferPool) Stats() (hits, misses int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// Close writes back every dirty page as one last group and closes the
// underlying pager, whose checkpoint is the one fsync of the data file a
// close costs and empties the log. If the pages cannot be written (or the
// store failed closed) the files are closed as they are: a checkpoint would
// empty a log that holds commits the data file does not.
func (bp *bufferPool) Close() error {
	if _, err := bp.writeGroup(); err != nil {
		return errors.Join(err, bp.pager.closeFiles())
	}
	return bp.pager.Close()
}
