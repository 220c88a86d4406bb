package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Len counts the entries, a full scan.
func (t *btree) Len() (int, error) {
	n := 0
	it := t.seek(nil)
	for ; it.Valid(); it.Next() {
		n++
	}
	return n, it.Err()
}

func testPool(t *testing.T, cachePages int) *bufferPool {
	t.Helper()
	pager, err := createPager(tempStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	bp := newBufferPool(pager, cachePages)
	t.Cleanup(func() { bp.Close() })
	return bp
}

func TestBTreeBasic(t *testing.T) {
	bp := testPool(t, 64)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert([]byte("a"), []byte("x")); !errors.Is(err, errDupKey) {
		t.Errorf("duplicate insert: %v", err)
	}
	v, err := bt.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := bt.Get([]byte("zz")); !errors.Is(err, errKeyNotFound) {
		t.Errorf("missing key: %v", err)
	}
	ok, err := bt.Has([]byte("b"))
	if err != nil || !ok {
		t.Error("Has(b) should be true")
	}
	n, err := bt.Len()
	if err != nil || n != 2 {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestBTreeKeyTooBig(t *testing.T) {
	bp := testPool(t, 64)
	bt, _ := newBTree(bp)
	if err := bt.Insert(make([]byte, maxCellSize), []byte("v")); !errors.Is(err, ErrKeyTooBig) {
		t.Errorf("huge key: %v", err)
	}
	// The largest entries the tree accepts: each is a run and a cell of its
	// own, and its key fits the inner nodes as a separator however they split.
	const keyLen = MaxEntrySize - 4
	if entrySize(keyLen, 0) != MaxEntrySize {
		t.Fatalf("EntrySize(%d, 0) = %d, want MaxEntrySize %d", keyLen, entrySize(keyLen, 0), MaxEntrySize)
	}
	key := func(i int) []byte { return append([]byte(fmt.Sprintf("%03d", i)), make([]byte, keyLen-3)...) }
	const n = 200
	for _, i := range rand.New(rand.NewSource(9)).Perm(n) {
		if err := bt.Insert(key(i), nil); err != nil {
			t.Fatalf("insert of a key of %d bytes: %v", keyLen, err)
		}
	}
	if err := bt.Insert(append(key(0), 0), nil); !errors.Is(err, ErrKeyTooBig) {
		t.Errorf("a key one byte longer: %v", err)
	}
	for i := 0; i < n; i++ {
		if ok, err := bt.Has(key(i)); err != nil || !ok {
			t.Fatalf("Has(key %d) = %v, %v", i, ok, err)
		}
	}
	if cnt, err := bt.Len(); err != nil || cnt != n {
		t.Errorf("Len = %d, %v; want %d", cnt, err, n)
	}
}

// TestBTreeManyKeysOrdered inserts enough entries to force multi-level
// splits and verifies full ordered iteration and point lookups.
func TestBTreeManyKeysOrdered(t *testing.T) {
	bp := testPool(t, 128)
	bt, _ := newBTree(bp)
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := []byte(fmt.Sprintf("val-%d", i))
		if err := bt.Insert(key, val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Point lookups.
	for i := 0; i < n; i += 97 {
		v, err := bt.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	// Ordered iteration sees every key exactly once, in order.
	var prev []byte
	count := 0
	it := bt.seek(nil)
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("iteration out of order at %q", it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != n {
		t.Fatalf("iterated %d of %d", count, n)
	}
}

func TestBTreeSeekAndRange(t *testing.T) {
	bp := testPool(t, 64)
	bt, _ := newBTree(bp)
	for _, k := range []string{"apple", "banana", "cherry", "damson", "elder"} {
		bt.Insert([]byte(k), []byte("v"))
	}
	it := bt.seek([]byte("c"))
	if !it.Valid() || string(it.Key()) != "cherry" {
		t.Fatalf("Seek(c) = %q", it.Key())
	}
	var got []string
	bt.scanFrom([]byte("banana"), nil, func(k, _ []byte) bool {
		if string(k) >= "elder" {
			return false
		}
		got = append(got, string(k))
		return true
	})
	want := []string{"banana", "cherry", "damson"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ScanFrom = %v, want %v", got, want)
	}
	// Early stop.
	calls := 0
	bt.scanFrom(nil, nil, func(_, _ []byte) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop did not stop: %d calls", calls)
	}
}

// TestBTreeAgainstMap runs a randomized insert workload mirrored in a Go map
// and compares the full contents afterwards, including across reopen. A key
// drawn again must be refused with errDupKey and keep its first value.
func TestBTreeAgainstMap(t *testing.T) {
	path := tempStore(t)
	pager, err := createPager(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp := newBufferPool(pager, 64)
	bt, _ := newBTree(bp)
	model := map[string]string{}
	r := rand.New(rand.NewSource(42))
	// Keys of four shapes — short, behind a long shared prefix, and pairs of
	// which one is a prefix of the other — and values from none to about as
	// much as an entry holds.
	deep := strings.Repeat("shared/prefix/", 12)
	for i := 0; i < 8000; i++ {
		k := fmt.Sprintf("k%04d", r.Intn(2000))
		switch r.Intn(4) {
		case 1:
			k = deep + k
		case 2:
			k = k[:2+r.Intn(3)]
		case 3:
			k += "/" + strings.Repeat("x", r.Intn(3))
		}
		v := fmt.Sprintf("v%d", i)
		switch r.Intn(8) {
		case 0:
			v = ""
		case 1:
			v = strings.Repeat("v", MaxEntrySize-8-len(k))
		}
		err := bt.Insert([]byte(k), []byte(v))
		old, dup := model[k]
		if !dup {
			if err != nil {
				t.Fatalf("insert %q: %v", k, err)
			}
			model[k] = v
			continue
		}
		if !errors.Is(err, errDupKey) {
			t.Fatalf("insert of existing %q: %v", k, err)
		}
		if got, err := bt.Get([]byte(k)); err != nil || string(got) != old {
			t.Fatalf("refused insert of %q changed its value: %d bytes, %v; want %d", k, len(got), err, len(old))
		}
	}
	if len(model) < 1000 {
		t.Fatalf("test premise: only %d distinct keys", len(model))
	}
	checkMatchesModel := func(bt *btree) {
		t.Helper()
		got := map[string]string{}
		it := bt.seek(nil)
		for ; it.Valid(); it.Next() {
			got[string(it.Key())] = string(it.Value())
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		if len(got) != len(model) {
			t.Fatalf("tree has %d keys, model %d", len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("key %q: tree %q model %q", k, got[k], v)
			}
		}
	}
	checkMatchesModel(bt)

	// Persist, reopen, re-verify.
	root := bt.Root()
	if err := bp.flushGroup(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	pager2, err := openPagerPath(path)
	if err != nil {
		t.Fatal(err)
	}
	bp2 := newBufferPool(pager2, 64)
	defer bp2.Close()
	checkMatchesModel(openBTree(bp2, root))
}

// TestBTreeTinyCache exercises eviction pressure: the pool holds far fewer
// pages than the tree, so every operation faults pages in and out.
func TestBTreeTinyCache(t *testing.T) {
	bp := testPool(t, 8)
	bt, _ := newBTree(bp)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := bt.Insert([]byte(fmt.Sprintf("%06d", i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	// Out of order behind one long prefix, values of nothing or of hundreds of
	// bytes: every insert re-encodes a run that shares the prefix, in a leaf
	// that was evicted since the last.
	deep := func(i int) []byte { return []byte(fmt.Sprintf("%s%06d", strings.Repeat("shared/prefix/", 12), i)) }
	valLen := func(i int) int { return (i % 2) * (i % 800) }
	for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
		if err := bt.Insert(deep(i), bytes.Repeat([]byte("v"), valLen(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if v, err := bt.Get(deep(i)); err != nil || len(v) != valLen(i) {
			t.Fatalf("Get(…%06d) = %d bytes, %v; want %d", i, len(v), err, valLen(i))
		}
	}
	cnt, err := bt.Len()
	if err != nil || cnt != 2*n {
		t.Fatalf("Len = %d, %v", cnt, err)
	}
	hits, misses := bp.Stats()
	if misses == 0 {
		t.Error("tiny cache should miss")
	}
	_ = hits
}

// heapRecords scans h into a list of its records in chain order.
func heapRecords(t *testing.T, h *heap) []string {
	t.Helper()
	var out []string
	if err := h.Scan(func(data []byte) bool { out = append(out, string(data)); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHeapBasic(t *testing.T) {
	bp := testPool(t, 64)
	h, err := newHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Insert([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if got := heapRecords(t, h); len(got) != 1 || got[0] != "record" {
		t.Fatalf("Scan after insert = %q", got)
	}
	if err := h.reset(); err != nil {
		t.Fatal(err)
	}
	if got := heapRecords(t, h); len(got) != 0 {
		t.Errorf("record readable after Reset: %q", got)
	}
	if err := h.Insert(make([]byte, maxCellSize+1)); !errors.Is(err, errCellTooBig) {
		t.Errorf("oversized record: %v", err)
	}
}

func TestHeapGrowsAndScans(t *testing.T) {
	bp := testPool(t, 32)
	h, _ := newHeap(bp)
	const n = 500
	payload := bytes.Repeat([]byte("z"), 100)
	for i := 0; i < n; i++ {
		if err := h.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
	if cnt := len(heapRecords(t, h)); cnt != n {
		t.Fatalf("scanned %d records, want %d", cnt, n)
	}
	// Records span multiple pages.
	if h.last == h.first {
		t.Error("heap did not grow")
	}
	// Reopen and rescan.
	h2, err := openHeap(bp, h.first)
	if err != nil {
		t.Fatal(err)
	}
	if cnt2 := len(heapRecords(t, h2)); cnt2 != n {
		t.Errorf("reopened heap scanned %d records", cnt2)
	}
	// Insert after reopen lands on the last page.
	if err := h2.Insert([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	// Reset keeps the chain and the same records fill it again: rewriting a
	// heap wholesale, as the catalog is at every commit, allocates nothing.
	pages := bp.pager.NumPages()
	for round := 0; round < 3; round++ {
		if err := h.reset(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := h.Insert(payload); err != nil {
				t.Fatal(err)
			}
		}
		if cnt := len(heapRecords(t, h)); cnt != n {
			t.Fatalf("round %d: scanned %d records after Reset and refill, want %d", round, cnt, n)
		}
	}
	if got := bp.pager.NumPages(); got != pages {
		t.Errorf("rewriting the heap in place grew the file from %d to %d pages", pages, got)
	}
}

// TestBTreeLast checks the rightmost descent on every tree shape it meets:
// empty, a single leaf, keys that are prefixes of each other, and many
// levels grown in random order.
func TestBTreeLast(t *testing.T) {
	bp := testPool(t, 128)
	var bt *btree
	wantLast := func(want string, wantOK bool) {
		t.Helper()
		got, ok, err := bt.last()
		if err != nil || ok != wantOK || string(got) != want {
			t.Fatalf("Last = %q, %v, %v; want %q, %v", got, ok, err, want, wantOK)
		}
	}
	newTree := func() {
		t.Helper()
		var err error
		if bt, err = newBTree(bp); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

	newTree()
	wantLast("", false)
	bt.Insert([]byte("m"), []byte("v"))
	wantLast("m", true)
	bt.Insert([]byte("c"), []byte("v"))
	wantLast("m", true)

	// Keys that are prefixes of each other, and of the last: the longest is
	// the largest.
	newTree()
	for _, c := range []struct{ insert, last string }{{"a/b", "a/b"}, {"a", "a/b"}, {"a/b/", "a/b/"}, {"a/", "a/b/"}} {
		bt.Insert([]byte(c.insert), nil)
		wantLast(c.last, true)
	}
	// One leaf of several full runs: the last key is the last of the last run.
	newTree()
	for i := 0; i < 3*maxRunEntries; i++ {
		bt.Insert(key(i), nil)
		wantLast(string(key(i)), true)
	}

	// ~12 entries a leaf and ~200 leaves an inner node: three levels, grown
	// in random order, so the rightmost path changes under every kind of
	// split.
	newTree()
	const n = 5000
	bulk := bytes.Repeat([]byte("v"), 300)
	top := -1
	for j, i := range rand.New(rand.NewSource(11)).Perm(n) {
		if err := bt.Insert(key(i), bulk); err != nil {
			t.Fatal(err)
		}
		top = max(top, i)
		if j%25 == 0 {
			wantLast(string(key(top)), true)
		}
	}
	for id, level := bt.Root(), 1; ; level++ {
		pg, err := bp.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		kind, next := pg.Kind(), pg.Next()
		bp.unpin(id, false)
		if kind == kindBTreeLeaf {
			if level < 3 {
				t.Fatalf("test premise: the tree has %d levels, want 3", level)
			}
			break
		}
		id = next
	}
	wantLast(string(key(n-1)), true)
	// The returned key is a copy: scribbling on it must not reach the page.
	got, _, _ := bt.last()
	got[0] = 'X'
	wantLast(string(key(n-1)), true)
}

func TestBTreeScanFrom(t *testing.T) {
	bp := testPool(t, 64)
	bt, _ := newBTree(bp)
	for _, k := range []string{"a/1", "a/2", "a/3", "b/1"} {
		bt.Insert([]byte(k), []byte("v"))
	}
	var got []string
	bt.scanFrom([]byte("a/2"), []byte("a/"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != "[a/2 a/3]" {
		t.Errorf("ScanFrom = %v", got)
	}
	// A nil prefix bounds nothing; an empty range calls fn not at all.
	calls := 0
	bt.scanFrom([]byte("a/3"), nil, func(_, _ []byte) bool { calls++; return true })
	bt.scanFrom([]byte("a/4"), []byte("a/"), func(_, _ []byte) bool { calls += 100; return true })
	if calls != 2 {
		t.Errorf("ScanFrom calls = %d, want 2", calls)
	}

	// Several runs behind one long prefix, among them keys that are prefixes
	// of each other: a walk may start inside a run, on a key that is absent,
	// and ends on the first key outside its prefix wherever in a run that is.
	deep := strings.Repeat("shared/prefix/", 12)
	var keys []string
	for i := 0; i < 5*maxRunEntries; i++ {
		k := fmt.Sprintf("%sn%03d", deep, i)
		keys = append(keys, k, k+"/", k+"/x")
	}
	for _, i := range rand.New(rand.NewSource(5)).Perm(len(keys)) {
		if err := bt.Insert([]byte(keys[i]), []byte(keys[i][len(deep):])); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		from, prefix string
		want         []string
	}{
		{deep, deep, keys},
		{deep + "n040", deep + "n04", keys[3*40 : 3*50]},
		{deep + "n040/", deep + "n040", keys[3*40+1 : 3*41]},
		{deep + "n0409", deep + "n04", keys[3*41 : 3*50]}, // absent: between n040/x and n041
		{deep + "n079/x", deep + "n079/", keys[3*79+2:]},
		{deep + "n079/y", deep, nil},
		{deep + "n02", deep + "n03", nil}, // from sorts before the prefix: the first key is outside it
	} {
		got = got[:0]
		if err := bt.scanFrom([]byte(c.from), []byte(c.prefix), func(k, v []byte) bool {
			if string(v) != string(k[len(deep):]) {
				t.Errorf("key …%s has value %q", k[len(deep):], v)
			}
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("ScanFrom(…%s, …%s) = %d keys %q, want %d %q", c.from[len(deep):], c.prefix[len(deep):],
				len(got), strings.ReplaceAll(strings.Join(got, " "), deep, ""), len(c.want), strings.ReplaceAll(strings.Join(c.want, " "), deep, ""))
		}
	}
}

// BenchmarkBTree measures the storage engine's index.
func BenchmarkBTree(b *testing.B) {
	pagerPath := b.TempDir() + "/bt.rel"
	pager, err := createPager(pagerPath, nil)
	if err != nil {
		b.Fatal(err)
	}
	bp := newBufferPool(pager, 256)
	defer bp.Close()
	bt, err := newBTree(bp)
	if err != nil {
		b.Fatal(err)
	}
	probe := []byte("get-probe")
	if err := bt.Insert(probe, []byte("value")); err != nil {
		b.Fatal(err)
	}
	// The tree refuses a key twice, and the insert sub-benchmark runs once
	// per b.N it tries: its keys count on across the runs.
	next := 0
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := []byte(fmt.Sprintf("key-%09d", next))
			next++
			if err := bt.Insert(key, []byte("value")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bt.Get(probe); err != nil {
				b.Fatal(err)
			}
		}
	})
}
