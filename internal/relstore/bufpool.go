package relstore

import (
	"container/list"
	"fmt"
	"sync"
)

// A BufferPool caches pages above the Pager with LRU eviction and
// write-back of dirty pages. Pages are pinned while in use; only unpinned
// pages are evictable.
type BufferPool struct {
	mu     sync.Mutex
	pager  *Pager
	cap    int
	frames map[PageID]*frame
	lru    *list.List // of PageID; front = most recently used
	hits   int64
	misses int64
}

type frame struct {
	page  *Page
	pins  int
	dirty bool
	elem  *list.Element
}

// NewBufferPool wraps the pager with a pool of the given capacity (pages).
// A capacity below 8 is raised to 8.
func NewBufferPool(p *Pager, capacity int) *BufferPool {
	if capacity < 8 {
		capacity = 8
	}
	return &BufferPool{
		pager:  p,
		cap:    capacity,
		frames: make(map[PageID]*frame, capacity),
		lru:    list.New(),
	}
}

// Pager returns the underlying pager.
func (bp *BufferPool) Pager() *Pager { return bp.pager }

// Fetch returns the page pinned; callers must Unpin it when done, passing
// dirty=true if they modified it.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.hits++
		f.pins++
		bp.lru.MoveToFront(f.elem)
		return f.page, nil
	}
	bp.misses++
	pg, err := bp.pager.Read(id)
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
func (bp *BufferPool) Alloc(kind byte) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	pg, err := bp.pager.Alloc(kind)
	if err != nil {
		return nil, err
	}
	if err := bp.admit(pg); err != nil {
		return nil, err
	}
	bp.frames[pg.ID].dirty = true
	return pg, nil
}

// admit inserts a page pinned once, evicting if needed. Caller holds mu.
func (bp *BufferPool) admit(pg *Page) error {
	if err := bp.evictIfFull(); err != nil {
		return err
	}
	f := &frame{page: pg, pins: 1}
	f.elem = bp.lru.PushFront(pg.ID)
	bp.frames[pg.ID] = f
	return nil
}

func (bp *BufferPool) evictIfFull() error {
	for len(bp.frames) >= bp.cap {
		// Find the least recently used unpinned frame.
		var victim *frame
		for e := bp.lru.Back(); e != nil; e = e.Prev() {
			f := bp.frames[e.Value.(PageID)]
			if f.pins == 0 {
				victim = f
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("relstore: buffer pool exhausted (%d pages, all pinned)", bp.cap)
		}
		if victim.dirty {
			if err := bp.pager.Write(victim.page); err != nil {
				return err
			}
		}
		bp.lru.Remove(victim.elem)
		delete(bp.frames, victim.page.ID)
	}
	return nil
}

// Unpin releases a pin; dirty marks the page modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("relstore: unpin of unpinned page %d", id))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// FlushGroup writes back every dirty page as one group commit
// (Pager.WriteGroup). With a log attached the group — pages and pager
// header — is durable behind one log write and one log fsync, however many
// records dirtied the pages; the data file is written but not fsynced
// until the log has grown past walCheckpointBytes and is checkpointed. That,
// and Close, are the only data-file fsyncs. With no log the data file is
// the only copy and is fsynced here, every time.
func (bp *BufferPool) FlushGroup() error {
	bp.mu.Lock()
	var dirty []*Page
	var frames []*frame
	for _, f := range bp.frames {
		if f.dirty {
			dirty = append(dirty, f.page)
			frames = append(frames, f)
		}
	}
	if len(dirty) == 0 {
		bp.mu.Unlock()
		return nil
	}
	if err := bp.pager.WriteGroup(dirty); err != nil {
		bp.mu.Unlock()
		return err
	}
	for _, f := range frames {
		f.dirty = false
	}
	bp.mu.Unlock()
	if !bp.pager.HasWAL() {
		return bp.pager.Sync()
	}
	return bp.pager.checkpointIfLarge()
}

// writeBack writes every dirty page to the pager, each on its own: through
// the log first if one is attached, and with no fsync of either file.
func (bp *BufferPool) writeBack() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.dirty {
			if err := bp.pager.Write(f.page); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// FlushAll writes back every dirty page and syncs the file.
func (bp *BufferPool) FlushAll() error {
	if err := bp.writeBack(); err != nil {
		return err
	}
	return bp.pager.Sync()
}

// Stats returns cache hit/miss counters.
func (bp *BufferPool) Stats() (hits, misses int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// Close writes back every dirty page and closes the underlying pager, whose
// checkpoint is the one fsync of the data file a close costs and empties the
// attached log.
func (bp *BufferPool) Close() error {
	if err := bp.writeBack(); err != nil {
		bp.pager.Close()
		return err
	}
	return bp.pager.Close()
}
