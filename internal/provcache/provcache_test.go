package provcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/provobs"
)

func newTestCache(maxBytes int64) (*Cache, *Metrics, *provobs.Registry) {
	reg := provobs.NewRegistry()
	met := NewMetrics(reg, "test")
	return New(maxBytes, met), met, reg
}

func TestCacheHitMiss(t *testing.T) {
	c, met, _ := newTestCache(100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	if met.Hits() != 1 || met.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", met.Hits(), met.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, met, _ := newTestCache(30)
	c.Put("a", "a", 10)
	c.Put("b", "b", 10)
	c.Put("c", "c", 10)
	c.Get("a") // touch a: b is now coldest
	c.Put("d", "d", 10)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if met.evictions.Load() != 1 {
		t.Fatalf("evictions=%d, want 1", met.evictions.Load())
	}
	if c.Bytes() != 30 || c.Len() != 3 {
		t.Fatalf("bytes=%d len=%d, want 30/3", c.Bytes(), c.Len())
	}
}

func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c, _, _ := newTestCache(100)
	c.Put("a", 1, 10)
	c.Put("a", 2, 40)
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Fatalf("bytes=%d len=%d, want 40/1", c.Bytes(), c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("Get(a) = %v, want 2", v)
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	c, _, _ := newTestCache(10)
	c.Put("big", 1, 11)
	if _, ok := c.Get("big"); ok {
		t.Fatal("entry larger than the budget must not be cached")
	}
	if c.Len() != 0 {
		t.Fatalf("len=%d, want 0", c.Len())
	}
}

func TestCacheStatsExposition(t *testing.T) {
	c, _, reg := newTestCache(100)
	c.Put("a", 1, 10)
	c.Get("a")
	c.Get("nope")
	stats := provobs.Stats(reg)
	want := map[string]int64{
		"cache.test.hits":      1,
		"cache.test.misses":    1,
		"cache.test.evictions": 0,
		"cache.test.bytes":     10,
		"cache.test.entries":   1,
	}
	for k, v := range want {
		if stats[k] != v {
			t.Errorf("stats[%q] = %d, want %d", k, stats[k], v)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c, _, _ := newTestCache(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%64)
				c.Put(k, i, 16)
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent load")
	}
}

func TestInternSharesValues(t *testing.T) {
	in := NewIntern[string](8)
	in.Put("hello", "hello")
	in.Put("hel"+"lo", "other")
	if v, ok := in.Get("hello"); !ok || v != "hello" {
		t.Fatalf("Get(hello) = %q, %v; want the first value put", v, ok)
	}
	if in.Len() != 1 {
		t.Fatalf("len=%d, want 1", in.Len())
	}
}

func TestInternCapStopsInserts(t *testing.T) {
	in := NewIntern[int](2)
	in.Put("a", 1)
	in.Put("b", 2)
	in.Put("c", 3)
	if in.Len() != 2 {
		t.Fatalf("len=%d, want 2 (cap)", in.Len())
	}
	if _, ok := in.Get("c"); ok {
		t.Fatal("insert past cap should have been dropped")
	}
	if v, ok := in.Get("a"); !ok || v != 1 {
		t.Fatal("entry below cap lost")
	}
}

func TestInternFirstValueWins(t *testing.T) {
	in := NewIntern[int](8)
	in.Put("k", 1)
	in.Put("k", 2)
	if v, _ := in.Get("k"); v != 1 {
		t.Fatalf("Get(k) = %d, want first value 1", v)
	}
}

func TestInternConcurrent(t *testing.T) {
	in := NewIntern[int](1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", i)
				in.Put(k, i)
				if v, ok := in.Get(k); ok && v != i {
					t.Errorf("Get(%s) = %d, want %d", k, v, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != 300 {
		t.Fatalf("len=%d, want 300", in.Len())
	}
}

// TestInternFillIsLinear: filling the table allocates a small multiple of
// the bytes one pre-sized map of the final size costs (snapshots double and
// each overflow map grows to its snapshot's size: about 4×). A table that
// copies itself on every Put allocates thousands of times that.
func TestInternFillIsLinear(t *testing.T) {
	const n = 8192
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("T/c%d/x%d", i%97, i)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	final := allocated(func() {
		m := make(map[string]int, n)
		for i, k := range keys {
			m[k] = i
		}
	})
	in := NewIntern[int](n)
	fill := allocated(func() {
		for i, k := range keys {
			in.Put(k, i)
		}
	})
	if in.Len() != n {
		t.Fatalf("len=%d, want %d", in.Len(), n)
	}
	if fill > 16*final {
		t.Fatalf("filling %d entries allocated %d bytes, %.0f× the final table's %d (want ≤ 16×)",
			n, fill, float64(fill)/float64(final), final)
	}
}

// TestInternGetSettledKeyAllocFree: once a key has been promoted into the
// snapshot a Get neither allocates nor reaches the overflow map.
func TestInternGetSettledKeyAllocFree(t *testing.T) {
	in := NewIntern[int](64)
	for i := 0; i < 10; i++ {
		in.Put(fmt.Sprintf("k%d", i), i)
	}
	k := "k0"
	if _, ok := (*in.snap.Load())[k]; !ok {
		t.Fatal("k0 was not promoted into the snapshot")
	}
	var got int
	if n := testing.AllocsPerRun(100, func() { got, _ = in.Get(k) }); n != 0 {
		t.Fatalf("Get of a settled key allocates %v times", n)
	}
	if got != 0 {
		t.Fatalf("Get(k0) = %d", got)
	}
}

// TestInternOverflowIsVisible: an entry is found, and Get returns the
// table's copy, while the entry still sits in the overflow map.
func TestInternOverflowIsVisible(t *testing.T) {
	in := NewIntern[string](64)
	for i := 0; i < 4; i++ {
		s := fmt.Sprintf("seg%d", i)
		in.Put(s, s)
	}
	first := string([]byte("fresh"))
	in.Put(first, first) // 4 settled + 1 pending
	if _, ok := (*in.snap.Load())["fresh"]; ok {
		t.Fatal("test premise: fresh should still be in the overflow map")
	}
	second, ok := in.Get(string([]byte("fresh")))
	if !ok || unsafe.StringData(first) != unsafe.StringData(second) {
		t.Fatal("Get did not return the table's copy")
	}
	if in.Len() != 5 {
		t.Fatalf("len=%d, want 5", in.Len())
	}
}

// TestInternGetBytes: a key built in a byte buffer finds what Get finds — a
// settled entry, one still in the overflow, nothing — and on a settled
// table neither a hit nor a miss allocates, however long the key.
func TestInternGetBytes(t *testing.T) {
	in := NewIntern[int](64)
	long := "a-key-longer-than-the-runtime's-32-byte-stack-buffer-for-conversions"
	in.Put(long, 7)
	for i := 0; i < 4; i++ {
		in.Put(fmt.Sprintf("k%d", i), i)
	}
	in.Put("fresh", 9) // 4 settled, k3 and fresh pending
	if _, ok := (*in.snap.Load())["fresh"]; ok || in.pending.Load() == 0 {
		t.Fatal("test premise: fresh should still be in the overflow map")
	}
	for _, c := range []struct {
		key  string
		want int
		ok   bool
	}{{long, 7, true}, {"k3", 3, true}, {"fresh", 9, true}, {"absent", 0, false}} {
		if got, ok := in.GetBytes([]byte(c.key)); got != c.want || ok != c.ok {
			t.Errorf("GetBytes(%q) = %d, %v; want %d, %v", c.key, got, ok, c.want, c.ok)
		}
	}
	full := NewIntern[int](2)
	full.Put(long, 7)
	full.Put("k", 1)
	hit, miss := []byte(long), []byte(long+"/and-more")
	if n := testing.AllocsPerRun(100, func() { full.GetBytes(hit); full.GetBytes(miss) }); n != 0 {
		t.Errorf("GetBytes on a settled table allocates %v times", n)
	}
}

// TestInternFullTableIsSettled: reaching the cap promotes everything, so
// misses on a full table never take the mutex.
func TestInternFullTableIsSettled(t *testing.T) {
	in := NewIntern[int](7)
	for i := 0; i < 20; i++ {
		in.Put(fmt.Sprintf("k%d", i), i)
	}
	if in.Len() != 7 || len(*in.snap.Load()) != 7 || in.pending.Load() != 0 {
		t.Fatalf("len=%d snapshot=%d pending=%d, want 7/7/0", in.Len(), len(*in.snap.Load()), in.pending.Load())
	}
}

// TestInternGetDuringPromotion: readers race writers across many
// promotions; a key whose Put has returned is always found, with the first
// value, wherever it currently lives.
func TestInternGetDuringPromotion(t *testing.T) {
	const n = 4096
	in := NewIntern[int](n)
	var done atomic.Int64 // keys k0..k(done-1) have been Put
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				hi := int(done.Load())
				if hi == n {
					return
				}
				for i := r; i < hi; i += 37 {
					if v, ok := in.Get(fmt.Sprintf("k%d", i)); !ok || v != i {
						t.Errorf("Get(k%d) = %d, %v after its Put returned", i, v, ok)
						return
					}
				}
				runtime.Gosched()
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		in.Put(fmt.Sprintf("k%d", i), i)
		done.Store(int64(i + 1))
	}
	wg.Wait()
}
