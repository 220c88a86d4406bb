package provcache

import (
	"sync"
	"sync/atomic"
)

// An Intern is an insert-only map from strings to values whose read path
// is lock-free for every settled key: Get loads one atomic pointer and
// indexes an immutable Go map (the snapshot), so it can sit inside a
// per-record decode loop with zero contention and zero allocation. New keys
// go into a small mutex-guarded overflow map, which is merged into a fresh
// snapshot once it is as large as the snapshot: snapshots double, so
// filling n entries copies O(n) of them and a Put is amortised O(1). The
// table is meant for high-repetition vocabularies (path segments, parsed
// paths, canonical query texts) that fill once and are then read millions
// of times; janus-datalog credits the same shape with its 6.26×
// intern-cache win. Once max entries are reached the table is promoted
// whole and further Puts are dropped: lookups of unseen keys just miss,
// lock-free, and the caller falls back to computing the value.
type Intern[V any] struct {
	snap    atomic.Pointer[map[string]V] // immutable once published
	pending atomic.Int64                 // len(over), readable without mu
	mu      sync.Mutex
	over    map[string]V // keys newer than snap; guarded by mu
	max     int
}

// NewIntern returns an intern table holding at most max entries.
func NewIntern[V any](max int) *Intern[V] {
	in := &Intern[V]{max: max}
	m := make(map[string]V)
	in.snap.Store(&m)
	return in
}

// Get returns the value interned under k. A key in the snapshot costs no
// lock and no allocation.
func (in *Intern[V]) Get(k string) (V, bool) {
	if v, ok := (*in.snap.Load())[k]; ok {
		return v, true
	}
	if in.pending.Load() == 0 {
		// Nothing outside the snapshot. Look again: a promotion may have
		// published k between the first lookup and the load of pending.
		v, ok := (*in.snap.Load())[k]
		return v, ok
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.over[k]; ok {
		return v, true
	}
	v, ok := (*in.snap.Load())[k] // promoted while we waited for mu
	return v, ok
}

// GetBytes is Get for a key built in a byte buffer. The snapshot — all of a
// settled table — is indexed by the bytes in place, so a decode loop that
// assembles its keys in scratch space allocates nothing on a hit or a miss
// there; only while keys wait in the overflow does a snapshot miss go on to
// Get, which may copy the key.
func (in *Intern[V]) GetBytes(k []byte) (V, bool) {
	v, ok := (*in.snap.Load())[string(k)]
	if ok || in.pending.Load() == 0 {
		return v, ok
	}
	return in.Get(string(k))
}

// Put publishes k→v if k is new and the table has room; otherwise it is a
// no-op. The first value published for a key wins, so concurrent racers
// converge on one shared value.
func (in *Intern[V]) Put(k string, v V) {
	in.mu.Lock()
	defer in.mu.Unlock()
	snap := *in.snap.Load()
	if _, ok := snap[k]; ok {
		return
	}
	if _, ok := in.over[k]; ok {
		return
	}
	n := len(snap) + len(in.over)
	if n >= in.max {
		return
	}
	if in.over == nil {
		in.over = make(map[string]V)
	}
	in.over[k] = v
	in.pending.Store(int64(len(in.over)))
	if len(in.over) < len(snap) && n+1 < in.max {
		return
	}
	// Promote: the overflow has caught up with the snapshot (or the table
	// is full and will never change again).
	next := make(map[string]V, n+1)
	for k2, v2 := range snap {
		next[k2] = v2
	}
	for k2, v2 := range in.over {
		next[k2] = v2
	}
	in.snap.Store(&next)
	in.over = nil
	in.pending.Store(0)
}

// Len returns the number of interned entries.
func (in *Intern[V]) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(*in.snap.Load()) + len(in.over)
}

// Full reports whether the table holds max entries, so that every further
// Put is dropped. It takes no lock: a caller past the cap can skip building
// the key it would have put.
func (in *Intern[V]) Full() bool {
	return len(*in.snap.Load())+int(in.pending.Load()) >= in.max
}
