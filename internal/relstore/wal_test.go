package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// logGroup appends one group of fresh heap pages with the given ids, each
// holding its id as a cell, under a header whose first byte is the first id.
func logGroup(t *testing.T, w *wal, ids ...pageID) {
	t.Helper()
	var pgs []*page
	for _, id := range ids {
		pg := newPage(id, kindHeap)
		pg.InsertCell([]byte(fmt.Sprintf("payload-%d", id)))
		pgs = append(pgs, pg)
	}
	if err := w.appendGroup(pgs, [storeHeaderSize]byte{byte(ids[0])}); err != nil {
		t.Fatal(err)
	}
}

// replayedIDs replays the log and returns the page ids applied, headers (0)
// included.
func replayedIDs(t *testing.T, w *wal) (ids []pageID, pages int) {
	t.Helper()
	pages, _, err := w.replay(func(id pageID, image []byte) error {
		ids = append(ids, id)
		if id != invalidPage && len(image) != PageSize {
			t.Errorf("page %d replayed with an image of %d bytes", id, len(image))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return ids, pages
}

// reopenWAL opens the log at path, cut after its last whole unit, without
// applying it anywhere.
func reopenWAL(t *testing.T, path string) *wal {
	t.Helper()
	w, _, _, err := openWAL(path, func(pageID, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// recoverPages replays the log at logPath over the store file at path and
// checkpoints, as opening a database does before it reads the catalog, which
// the stores these tests build page by page do not have. It returns the
// number of page images rewritten.
func recoverPages(path, logPath string) (int, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	w, n, _, err := replayLog(f, logPath)
	if err != nil {
		f.Close()
		return n, err
	}
	p, err := openPager(f, w)
	if err != nil {
		f.Close()
		w.f.Close()
		return n, err
	}
	return n, p.Close()
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.f.Close()
	logGroup(t, w, 1)
	logGroup(t, w, 3, 2)
	if got, n := replayedIDs(t, w); n != 3 || fmt.Sprint(got) != "[0 1 0 3 2]" {
		t.Errorf("replay order = %v (%d pages), want [0 1 0 3 2]", got, n)
	}
	// Appends continue after replay.
	logGroup(t, w, 4)
	if _, n := replayedIDs(t, w); n != 4 {
		t.Errorf("after append: %d page records", n)
	}
	// Truncate checkpoints.
	if err := w.truncate(); err != nil {
		t.Fatal(err)
	}
	if _, n := replayedIDs(t, w); n != 0 {
		t.Errorf("after truncate: %d page records", n)
	}
	if sz := w.size(); sz != 0 {
		t.Errorf("size after truncate: %d", sz)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log")
	w, err := createWAL(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logGroup(t, w, 1)
	logGroup(t, w, 2)
	w.f.Close()

	// Tear the second group: chop off its last 100 bytes.
	fi, _ := os.Stat(logPath)
	if err := os.Truncate(logPath, fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	w2 := reopenWAL(t, logPath)
	defer w2.f.Close()
	if got, n := replayedIDs(t, w2); n != 1 || fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("torn replay = %v (%d pages); want only the intact prefix [0 1]", got, n)
	}
	// New groups land after the intact prefix and are readable.
	logGroup(t, w2, 9)
	if got, _ := replayedIDs(t, w2); fmt.Sprint(got) != "[0 1 0 9]" {
		t.Errorf("ids after torn recovery = %v", got)
	}
}

func TestWALCorruptImage(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log")
	w, _ := createWAL(logPath)
	logGroup(t, w, 1)
	w.f.Close()
	// Flip a byte inside the image.
	f, _ := os.OpenFile(logPath, os.O_RDWR, 0)
	f.WriteAt([]byte{0xFF}, walGroupSize+walHeaderSize+500)
	f.Close()
	w2 := reopenWAL(t, logPath)
	defer w2.f.Close()
	if got, n := replayedIDs(t, w2); n != 0 || len(got) != 0 {
		t.Fatalf("corrupt image replay = %v (%d pages); want nothing, not even its header", got, n)
	}
}

// TestWALPageRecordOutsideGroup: the log holds groups and nothing else. An
// intact page record that no group counts — what an evicted dirty page used
// to leave there, ahead of its commit — is not replayed; it ends the usable
// log like a torn record, and so does everything behind it.
func TestWALPageRecordOutsideGroup(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "log")
	w, err := createWAL(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logGroup(t, w, 1)
	first := w.size()
	w.f.Close()
	stolen := newPage(7, kindHeap)
	stolen.seal()
	rec := binary.BigEndian.AppendUint32(nil, walMagic)
	rec = binary.BigEndian.AppendUint64(rec, 3)
	rec = binary.BigEndian.AppendUint32(rec, uint32(stolen.ID))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(stolen.buf[:]))
	rec = append(rec, stolen.buf[:]...)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w = reopenWAL(t, logPath)
	defer w.f.Close()
	if got, _ := replayedIDs(t, w); fmt.Sprint(got) != "[0 1]" {
		t.Errorf("replayed %v, want only the group [0 1]", got)
	}
	if w.size() != first {
		t.Errorf("appends resume at %d, want %d (after the group)", w.size(), first)
	}
}

// TestCrashRecovery: a store whose data file is damaged after a crash is
// repaired from the write-ahead log — every acknowledged page write is
// recoverable.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.db")
	walPath := filepath.Join(dir, "store.wal")

	w, err := createWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	pager, err := createPager(storePath, w)
	if err != nil {
		t.Fatal(err)
	}
	bp := newBufferPool(pager, 16)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	// Five commits, so the log holds several images of the same pages and
	// the order of replay decides which one the data file ends with.
	const n = 500
	for i := 0; i < n; i++ {
		if err := bt.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := bp.flushGroup(); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := bt.Root()
	// The crash comes here: a clean Close would checkpoint and empty the log.
	crashedLog, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, crashedLog, 0o644); err != nil {
		t.Fatal(err)
	}

	// Simulate torn writes: scribble over several pages of the data file.
	f, err := os.OpenFile(storePath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, PageSize)
	for _, pageNo := range []int64{1, 3, 5} {
		if _, err := f.WriteAt(junk, pageNo*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Without recovery, reads fail the checksum.
	p2, err := openPagerPath(storePath)
	if err == nil {
		_, rerr := p2.read(1)
		p2.Close()
		if rerr == nil {
			t.Fatal("scribbled page read without error")
		}
	}

	// Recover from the log, then verify every key.
	repaired, err := recoverPages(storePath, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("nothing repaired")
	}
	pager3, err := openPagerPath(storePath)
	if err != nil {
		t.Fatal(err)
	}
	bp3 := newBufferPool(pager3, 16)
	defer bp3.Close()
	bt3 := openBTree(bp3, root)
	for i := 0; i < n; i++ {
		if _, err := bt3.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("key %d lost after recovery: %v", i, err)
		}
	}
	// Recovery truncated the log (checkpoint).
	w3 := reopenWAL(t, walPath)
	defer w3.f.Close()
	if cnt, _, _ := w3.replay(func(pageID, []byte) error { return nil }); cnt != 0 {
		t.Errorf("log not truncated after recovery: %d records", cnt)
	}
}

// TestWALAppendGroup: a group append logs the pager header and every image
// exactly once and replay reproduces them in order, the header as a short
// image of page 0; after a crash the whole group is recoverable (one fsync
// covered it).
func TestWALAppendGroup(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log")
	w, err := createWAL(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var pgs []*page
	for i := 1; i <= 5; i++ {
		pg := newPage(pageID(i), kindHeap)
		pg.InsertCell([]byte(fmt.Sprintf("grouped-%d", i)))
		pgs = append(pgs, pg)
	}
	hdr := [storeHeaderSize]byte{0xC9, 0xDB}
	if err := w.appendGroup(pgs, hdr); err != nil {
		t.Fatal(err)
	}
	if err := w.appendGroup(nil, hdr); err != nil {
		t.Fatal(err)
	}
	w.f.Close()

	w2 := reopenWAL(t, logPath)
	defer w2.f.Close()
	var got []pageID
	n, _, err := w2.replay(func(id pageID, image []byte) error {
		got = append(got, id)
		if id == 0 && !bytes.Equal(image, hdr[:]) {
			t.Errorf("replayed header = %x, want %x", image, hdr)
		}
		return nil
	})
	if err != nil || n != 5 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5 0]" {
		t.Errorf("replay order = %v", got)
	}
	if fsyncs, logged := w.stats(); fsyncs != 2 || logged != 2*walGroupSize+5*walPageSize {
		t.Errorf("two groups cost %d fsyncs and %d bytes", fsyncs, logged)
	}
}

// TestPagerWriteGroup: a grouped write reaches the log — pages and pager
// header, behind one log fsync and no data fsync — and the data file;
// the log alone rebuilds the group over a data file that never saw it;
// out-of-range pages are rejected before anything is logged.
func TestPagerWriteGroup(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "s.db")
	w, err := createWAL(filepath.Join(dir, "s.wal"))
	if err != nil {
		t.Fatal(err)
	}
	pager, err := createPager(storePath, w)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	if pager.wal != w {
		t.Fatal("the pager does not log to the log it was made with")
	}
	emptyStore, err := os.ReadFile(storePath) // header only, 1 page
	if err != nil {
		t.Fatal(err)
	}
	var pgs []*page
	for i := 0; i < 3; i++ {
		pg, err := pager.alloc(kindHeap)
		if err != nil {
			t.Fatal(err)
		}
		pg.InsertCell([]byte(fmt.Sprintf("wg-%d", i)))
		pgs = append(pgs, pg)
	}
	if err := pager.writeGroup(pgs); err != nil {
		t.Fatal(err)
	}
	if st := pager.IOStats(); st.WALFsyncs != 1 || st.DataFsyncs != 0 || st.WALBytes != walGroupSize+3*walPageSize {
		t.Errorf("one group cost %+v; want 1 log fsync, 0 data fsyncs, %d log bytes", st, walGroupSize+3*walPageSize)
	}
	for _, pg := range pgs {
		got, err := pager.read(pg.ID)
		if err != nil {
			t.Fatalf("read back page %d: %v", pg.ID, err)
		}
		if got.NumSlots() != 1 {
			t.Errorf("page %d slots = %d", pg.ID, got.NumSlots())
		}
	}
	if n, _, err := w.replay(func(pageID, []byte) error { return nil }); err != nil || n != 3 {
		t.Errorf("log has %d page records, %v; want 3", n, err)
	}
	bad := newPage(pageID(999), kindHeap)
	if err := pager.writeGroup([]*page{bad}); !errors.Is(err, errOutOfRange) {
		t.Errorf("out-of-range group write: %v", err)
	}
	if got := w.size(); got != walGroupSize+3*walPageSize {
		t.Errorf("rejected group was logged: log size %d", got)
	}

	// Crash with none of the group in the data file: the log carries the
	// page count too, so the recovered pager can read all three pages.
	crashed := filepath.Join(dir, "crashed.db")
	if err := os.WriteFile(crashed, emptyStore, 0o644); err != nil {
		t.Fatal(err)
	}
	copyFile(t, filepath.Join(dir, "s.wal"), crashed+".wal")
	if n, err := recoverPages(crashed, crashed+".wal"); err != nil || n != 3 {
		t.Fatalf("recovery = %d, %v; want 3 pages", n, err)
	}
	rec, err := openPagerPath(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.NumPages() != 4 {
		t.Errorf("recovered NumPages = %d, want 4", rec.NumPages())
	}
	for _, pg := range pgs {
		if got, err := rec.read(pg.ID); err != nil || got.NumSlots() != 1 {
			t.Errorf("recovered page %d: %v", pg.ID, err)
		}
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	if err := os.WriteFile(to, readAll(t, from), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolFlushGroup: dirty pages flush as one group and stay
// readable; a second flush is a no-op. With a log the flush costs one log
// fsync and leaves the data file unsynced; without one it fsyncs the data
// file, the only copy.
func TestBufferPoolFlushGroup(t *testing.T) {
	for _, logged := range []bool{true, false} {
		dir := t.TempDir()
		var w *wal
		if logged {
			var err error
			if w, err = createWAL(filepath.Join(dir, "s.wal")); err != nil {
				t.Fatal(err)
			}
		}
		pager, err := createPager(filepath.Join(dir, "s.db"), w)
		if err != nil {
			t.Fatal(err)
		}
		bp := newBufferPool(pager, 16)
		defer bp.Close()
		bt, err := newBTree(bp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := bt.Insert([]byte(fmt.Sprintf("g%03d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		before := pager.IOStats()
		if err := bp.flushGroup(); err != nil {
			t.Fatal(err)
		}
		if err := bp.flushGroup(); err != nil { // nothing dirty: no-op
			t.Fatal(err)
		}
		after := pager.IOStats()
		logSyncs, dataSyncs := after.WALFsyncs-before.WALFsyncs, after.DataFsyncs-before.DataFsyncs
		if logged && (logSyncs != 1 || dataSyncs != 0) || !logged && (logSyncs != 0 || dataSyncs != 1) {
			t.Errorf("logged=%v: group flush cost %d log fsyncs, %d data fsyncs", logged, logSyncs, dataSyncs)
		}
		for i := 0; i < 50; i++ {
			if _, err := bt.Get([]byte(fmt.Sprintf("g%03d", i))); err != nil {
				t.Fatalf("key %d lost after group flush: %v", i, err)
			}
		}
	}
}

// TestBufferPoolNoStealUnderLog: with a log attached a dirty page leaves the
// pool only inside a committed group. Dirtying ten times the pool's capacity
// between two commits changes neither file; the pool holds the open commit
// over its capacity instead, and a crash there recovers the store as of the
// last commit. The commit logs the pages as one group, and the first admit
// after it brings the pool back under its capacity. Every frame pinned is
// errPoolExhausted, with a log or without.
func TestBufferPoolNoStealUnderLog(t *testing.T) {
	const capacity = 16
	dir := t.TempDir()
	storePath, walPath := filepath.Join(dir, "s.db"), filepath.Join(dir, "s.db.wal")
	w, err := createWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	pager, err := createPager(storePath, w)
	if err != nil {
		t.Fatal(err)
	}
	bp := newBufferPool(pager, capacity)
	defer bp.Close()
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i*7919%100003)) }
	put := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := bt.Insert(key(i), bytes.Repeat([]byte("v"), 400)); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := func() int {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		return len(bp.frames)
	}
	const committed, total = 200, 2200
	put(0, committed)
	if err := bp.flushGroup(); err != nil {
		t.Fatal(err)
	}
	root, pagesBefore := bt.Root(), pager.NumPages()
	dataBefore, logBefore := readAll(t, storePath), readAll(t, walPath)

	put(committed, total)
	dirtied := int(pager.NumPages() - pagesBefore)
	if dirtied < 10*capacity {
		t.Fatalf("test premise: the open commit allocated %d pages, want at least %d", dirtied, 10*capacity)
	}
	if !bytes.Equal(readAll(t, storePath), dataBefore) {
		t.Error("the data file changed before the commit")
	}
	if !bytes.Equal(readAll(t, walPath), logBefore) {
		t.Error("the log changed before the commit")
	}
	if got := resident(); got < dirtied {
		t.Errorf("%d frames resident with %d pages dirty: a dirty page left the pool", got, dirtied)
	}

	// A crash here: both files as they stand recover to the first commit.
	crashed := filepath.Join(dir, "crashed.db")
	copyFile(t, storePath, crashed)
	copyFile(t, walPath, crashed+".wal")
	if _, err := recoverPages(crashed, crashed+".wal"); err != nil {
		t.Fatal(err)
	}
	cp, err := openPagerPath(crashed)
	if err != nil {
		t.Fatal(err)
	}
	cbp := newBufferPool(cp, capacity)
	defer cbp.Close()
	if n, err := openBTree(cbp, root).Len(); err != nil || n != committed {
		t.Errorf("recovered tree holds %d keys, %v; want the %d committed", n, err, committed)
	}

	before := pager.IOStats()
	if err := bp.flushGroup(); err != nil {
		t.Fatal(err)
	}
	after := pager.IOStats()
	if after.WALFsyncs-before.WALFsyncs != 1 || after.WALBytes-before.WALBytes < int64(walGroupSize+dirtied*walPageSize) {
		t.Errorf("the commit cost %d log fsyncs and %d log bytes; want 1 and at least %d",
			after.WALFsyncs-before.WALFsyncs, after.WALBytes-before.WALBytes, walGroupSize+dirtied*walPageSize)
	}
	for i := 0; i < total; i++ {
		if _, err := bt.Get(key(i)); err != nil {
			t.Fatalf("key %d after the commit: %v", i, err)
		}
	}
	// Every page is still resident, so no read misses; the first admit is an
	// allocation.
	pg, err := bp.alloc(kindHeap)
	if err != nil {
		t.Fatal(err)
	}
	bp.unpin(pg.ID, true)
	if got := resident(); got > capacity {
		t.Errorf("%d frames resident after the commit and one admit, want at most %d", got, capacity)
	}

	for _, logged := range []bool{true, false} {
		dir := t.TempDir()
		var pw *wal
		if logged {
			if pw, err = createWAL(filepath.Join(dir, "pinned.db.wal")); err != nil {
				t.Fatal(err)
			}
		}
		p, err := createPager(filepath.Join(dir, "pinned.db"), pw)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pinned := newBufferPool(p, 8)
		for i := 0; i < 9; i++ {
			pg, err := pinned.alloc(kindHeap)
			if err != nil {
				t.Fatal(err)
			}
			pinned.unpin(pg.ID, true)
		}
		if err := pinned.flushGroup(); err != nil {
			t.Fatal(err)
		}
		for id := pageID(1); id <= 8; id++ {
			if _, err := pinned.fetch(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pinned.alloc(kindHeap); !errors.Is(err, errPoolExhausted) {
			t.Errorf("logged=%v: ninth pin in a pool of eight: %v, want ErrPoolExhausted", logged, err)
		}
	}
}

func readAll(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWALGroupIsAtomic: a group that lost any of its records — its tail, or
// one image's checksum — is not replayed at all, and neither is anything
// after it; the groups before it are.
func TestWALGroupIsAtomic(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log")
	w, err := createWAL(logPath)
	if err != nil {
		t.Fatal(err)
	}
	group := func(ids ...pageID) {
		var pgs []*page
		for _, id := range ids {
			pgs = append(pgs, newPage(id, kindHeap))
		}
		if err := w.appendGroup(pgs, [storeHeaderSize]byte{byte(ids[0])}); err != nil {
			t.Fatal(err)
		}
	}
	group(1, 2)
	group(3, 4, 5)
	w.f.Close()
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	second := walGroupSize + 2*walPageSize // where the second group starts
	for name, damage := range map[string]func([]byte) []byte{
		"tail cut":       func(b []byte) []byte { return b[:len(b)-100] },
		"last image cut": func(b []byte) []byte { return b[:len(b)-walPageSize] },
		"middle image flipped": func(b []byte) []byte {
			b[second+walGroupSize+walPageSize+walHeaderSize+7] ^= 0xFF
			return b
		},
		"header flipped": func(b []byte) []byte { b[second+walHeaderSize+1] ^= 0xFF; return b },
	} {
		if err := os.WriteFile(logPath, damage(bytes.Clone(whole)), 0o644); err != nil {
			t.Fatal(err)
		}
		w2 := reopenWAL(t, logPath)
		var got []pageID
		if _, _, err := w2.replay(func(id pageID, _ []byte) error { got = append(got, id); return nil }); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[0 1 2]" {
			t.Errorf("%s: replayed %v, want only the first group [0 1 2]", name, got)
		}
		if w2.size() != int64(second) {
			t.Errorf("%s: appends resume at %d, want %d (after the first group)", name, w2.size(), second)
		}
		w2.f.Close()
	}
}

// TestWALAppendGroupAllocFree: a commit is encoded in the log's own buffer.
func TestWALAppendGroupAllocFree(t *testing.T) {
	w, err := createWAL(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.f.Close()
	pgs := []*page{newPage(1, kindHeap), newPage(2, kindHeap), newPage(3, kindHeap)}
	var hdr [storeHeaderSize]byte
	if n := testing.AllocsPerRun(20, func() {
		if err := w.appendGroup(pgs, hdr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendGroup allocates %v times per commit", n)
	}
}

func TestPagerCheckpoint(t *testing.T) {
	dir := t.TempDir()
	unlogged, err := createPager(filepath.Join(dir, "u.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer unlogged.Close()
	// Checkpoint without a WAL is a no-op.
	if err := unlogged.checkpoint(); err != nil {
		t.Fatal(err)
	}
	w, err := createWAL(filepath.Join(dir, "s.wal"))
	if err != nil {
		t.Fatal(err)
	}
	pager, err := createPager(filepath.Join(dir, "s.db"), w)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	pg, _ := pager.alloc(kindHeap)
	pg.InsertCell([]byte("x"))
	if err := pager.writeGroup([]*page{pg}); err != nil {
		t.Fatal(err)
	}
	if sz := w.size(); sz == 0 {
		t.Fatal("write not logged")
	}
	if err := pager.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if sz := w.size(); sz != 0 {
		t.Errorf("log size after checkpoint: %d", sz)
	}
}

func TestOpenWALMissingDir(t *testing.T) {
	if _, _, _, err := openWAL(filepath.Join(t.TempDir(), "no", "dir", "log"), nil); err == nil {
		t.Error("missing directory should error")
	}
	var torn error = errTornLog
	if !errors.Is(torn, errTornLog) {
		t.Error("sentinel identity")
	}
}
