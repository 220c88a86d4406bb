// Package provcache provides the shared caching primitives of the read
// path: a bytes-bounded LRU result cache and an insert-only intern table
// with a lock-free read path.
//
// The store's append-only (Tid, Loc) order makes these caches trivially
// coherent: a committed record is immutable, so any read result is valid
// forever *at the horizon it was computed against*. Cache keys therefore
// embed a horizon observation (a MaxTid the caller has seen), and
// invalidation is nothing more than keying new reads under a newer
// observation — the old entries become unreachable and age out of the LRU.
// DESIGN.md §10 states the full coherence contract.
//
// Every cache publishes hits/misses/evictions/bytes/entries through a
// provobs registry (NewMetrics), so /metrics, /v1/stats and the daemon's
// shutdown dump all carry cache effectiveness without extra wiring.
package provcache

import (
	"container/list"
	"sync"

	"repro/internal/provobs"
)

// Metrics is the observable surface of one cache: the standard
// hits/misses/evictions counters and bytes/entries gauges, registered as
// cpdb_cache_* series labelled with the cache's name.
type Metrics struct {
	hits      *provobs.Counter
	misses    *provobs.Counter
	evictions *provobs.Counter
	bytes     *provobs.Gauge
	entries   *provobs.Gauge
}

// NewMetrics registers the standard cache series for the named cache on
// reg: counters cpdb_cache_{hits,misses,evictions}_total and gauges
// cpdb_cache_{bytes,entries}, each labelled {cache=<name>}, with the flat
// /v1/stats keys cache.<name>.{hits,misses,evictions,bytes,entries}.
func NewMetrics(reg *provobs.Registry, name string) *Metrics {
	lbl := func() provobs.MetricOpt { return provobs.WithLabel("cache", name) }
	key := func(s string) provobs.MetricOpt { return provobs.WithStatKey("cache." + name + "." + s) }
	return &Metrics{
		hits:      reg.Counter("cpdb_cache_hits_total", "Cache lookups answered from the cache.", lbl(), key("hits")),
		misses:    reg.Counter("cpdb_cache_misses_total", "Cache lookups that fell through to the backing read path.", lbl(), key("misses")),
		evictions: reg.Counter("cpdb_cache_evictions_total", "Entries evicted to stay within the cache budget.", lbl(), key("evictions")),
		bytes:     reg.Gauge("cpdb_cache_bytes", "Approximate bytes of entries currently cached.", lbl(), key("bytes")),
		entries:   reg.Gauge("cpdb_cache_entries", "Entries currently cached.", lbl(), key("entries")),
	}
}

// Hits returns the number of cache hits so far.
func (m *Metrics) Hits() int64 { return m.hits.Load() }

// Misses returns the number of cache misses so far.
func (m *Metrics) Misses() int64 { return m.misses.Load() }

// entry is one cached value with the bookkeeping the LRU needs.
type entry struct {
	key  string
	val  any
	size int64
}

// A Cache is a bytes-bounded LRU map from string keys to opaque values.
// Sizes are caller-declared (a decoded result's approximate footprint, or
// 1 to make the bound a plain entry count); when an insert pushes the
// total over the budget, least-recently-used entries are evicted until it
// fits. A value larger than the whole budget is simply not cached.
//
// A Cache is safe for concurrent use. Values are returned as stored —
// callers share them across goroutines, so cached values must be
// immutable (which every user here guarantees: decoded records, rows and
// compiled plans are never mutated after creation).
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	m     map[string]*list.Element
	lru   *list.List // front = most recently used
	met   *Metrics
}

// New returns a cache bounded to maxBytes of caller-declared entry sizes,
// reporting through met (which must be non-nil; see NewMetrics).
func New(maxBytes int64, met *Metrics) *Cache {
	return &Cache{
		max: maxBytes,
		m:   make(map[string]*list.Element),
		lru: list.New(),
		met: met,
	}
}

// Get returns the value cached under key, if any, marking it recently
// used. Every call counts as exactly one hit or one miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		c.met.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	v := el.Value.(*entry).val
	c.mu.Unlock()
	c.met.hits.Add(1)
	return v, true
}

// Put caches v under key with the given declared size, replacing any
// previous entry and evicting from the cold end until the budget holds.
func (c *Cache) Put(key string, v any, size int64) {
	if size > c.max || size < 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.lru.MoveToFront(el)
	} else {
		c.m[key] = c.lru.PushFront(&entry{key: key, val: v, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.m, e.key)
		c.bytes -= e.size
		c.met.evictions.Add(1)
	}
	c.met.bytes.Set(c.bytes)
	c.met.entries.Set(int64(c.lru.Len()))
	c.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the declared size of all cached entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
