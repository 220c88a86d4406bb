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

// redoRow is the i-th row the redo tests store.
func redoRow(i int) Row {
	return Row{int64(i), []byte(fmt.Sprintf("T/c%d/e%d", i%7, i)), "I", []byte{}}
}

// reopen opens the store at path, which replays and redoes its log, and
// closes it; it returns the number of page images and rows the open restored.
func reopen(path string) (int, error) {
	db, n, err := open(path, false, false)
	if err != nil {
		return n, err
	}
	return n, db.Close()
}

// TestRedoIsIdempotent: commits under a log are logged as their rows, and
// recovery redoes them over the data file of the last checkpoint. A log that
// comes back after a finished recovery redoes nothing and changes no byte of
// the data file; a logged row the store holds with other bytes fails
// recovery with errCorrupt, the data file untouched.
func TestRedoIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	store, log := filepath.Join(dir, "s.db"), filepath.Join(dir, "s.db.wal")
	db, err := Open(store, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(provSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(store, false, true); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.Table("prov")
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := readAll(t, store)
	const n = 20
	for i := 0; i < n; i++ {
		if err := tbl.Insert(redoRow(i)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := db.GroupCommit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := db.IOStats(); st.WALFsyncs != n/5 {
		t.Errorf("%d commits cost %d log fsyncs", n/5, st.WALFsyncs)
	}
	if !bytes.Equal(readAll(t, store), checkpointed) {
		t.Fatal("a commit logged as its rows wrote the data file")
	}
	crashedLog := readAll(t, log) // the crash: no Close

	crashed := filepath.Join(dir, "crashed.db")
	copyFile(t, store, crashed)
	if err := os.WriteFile(crashed+".wal", crashedLog, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := reopen(crashed); err != nil || got != n {
		t.Fatalf("recovery = %d, %v; want the %d logged rows redone", got, err, n)
	}
	if fi, err := os.Stat(crashed + ".wal"); err != nil || fi.Size() != 0 {
		t.Fatalf("log after recovery: %v, %v; want it empty", fi, err)
	}
	openRows := func() int64 {
		t.Helper()
		db, err := Open(crashed, false, false)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.Table("prov")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tbl.Get(redoRow(i)[0], redoRow(i)[1]); err != nil {
				t.Fatalf("row %d after recovery: %v", i, err)
			}
		}
		return tbl.RowCount()
	}
	if rows := openRows(); rows != n {
		t.Errorf("recovered table counts %d rows, want %d", rows, n)
	}
	recovered := readAll(t, crashed) // as Close left it

	// The log comes back: every row is stored with the same bytes.
	if err := os.WriteFile(crashed+".wal", crashedLog, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := reopen(crashed); err != nil || got != 0 {
		t.Fatalf("recovery over a recovered store = %d, %v; want 0 rows redone", got, err)
	}
	if !bytes.Equal(readAll(t, crashed), recovered) {
		t.Error("redoing rows the store holds changed the data file")
	}
	if rows := openRows(); rows != n {
		t.Errorf("after a second recovery the table counts %d rows, want %d", rows, n)
	}

	// A logged row the store holds with other bytes.
	pk, _, err := tbl.encodeRow(redoRow(3))
	if err != nil {
		t.Fatal(err)
	}
	other := redoRow(3)
	other[2] = "D"
	_, val, err := tbl.encodeRow(other)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := createWAL(crashed + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.appendRows(appendLoggedRow(nil, "prov", pk, val)); err != nil {
		t.Fatal(err)
	}
	cw.f.Close()
	recovered = readAll(t, crashed)
	if _, err := reopen(crashed); !errors.Is(err, errCorrupt) {
		t.Errorf("redo of a row stored with other bytes: %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(readAll(t, crashed), recovered) {
		t.Error("a failed redo changed the data file")
	}
}

// TestCreateDropsStaleLog: creating a store where a crashed one left its
// log drops that log, durable or not; replayed at the next open, it would
// bring the old store's pages back over the new one.
func TestCreateDropsStaleLog(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(filepath.Join(dir, "old.db"), true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	tbl, err := old.CreateTable(provSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(redoRow(0)); err != nil {
		t.Fatal(err)
	}
	if err := old.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	stale := readAll(t, filepath.Join(dir, "old.db.wal")) // a crash: no Close
	for _, durable := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "s.db")
		if err := os.WriteFile(path+".wal", stale, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path, true, durable)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, n, err := open(path, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if tables := db.TableNames(); n != 0 || len(tables) != 0 {
			t.Errorf("durable=%v: the new store reopens with %d images and rows restored and tables %v; want none", durable, n, tables)
		}
		db.Close()
	}
}

// A walEvent is what a replay hands out: a page image or group header
// (apply), or a rows record body returned for redo.
type walEvent struct {
	id   pageID
	body string
}

// referenceReplay reads log the plain way, one whole unit at a time — a rows
// record, or a group record and the page records it counts, each record
// checked against its checksum — and stops at the first unit that is not
// whole. It returns what a replay must apply, how many of those are page
// images, the rows records after the last group, and where appends must
// resume.
func referenceReplay(log []byte) (applied []walEvent, pages int, rows []string, end int) {
	record := func(pos int) (magic uint32, id pageID, body []byte, ok bool) {
		if len(log)-pos < walHeaderSize {
			return 0, 0, nil, false
		}
		magic, id = binary.BigEndian.Uint32(log[pos:]), pageID(binary.BigEndian.Uint32(log[pos+12:]))
		size := map[uint32]int{walMagic: PageSize, walGroupMagic: storeHeaderSize + 4, walRowsMagic: int(id)}[magic]
		if size == 0 && magic != walRowsMagic || len(log)-pos-walHeaderSize < size {
			return 0, 0, nil, false
		}
		body = log[pos+walHeaderSize : pos+walHeaderSize+size]
		return magic, id, body, crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(log[pos+16:])
	}
	for pos := 0; ; {
		magic, _, body, ok := record(pos)
		if !ok {
			return applied, pages, rows, end
		}
		pos += walHeaderSize + len(body)
		switch magic {
		case walRowsMagic:
			rows = append(rows, string(body))
		case walGroupMagic:
			unit := []walEvent{{0, string(body[:storeHeaderSize])}}
			for count := binary.BigEndian.Uint32(body[storeHeaderSize:]); count > 0; count-- {
				magic, id, body, ok := record(pos)
				if !ok || magic != walMagic {
					return applied, pages, rows, end
				}
				pos += walHeaderSize + len(body)
				unit = append(unit, walEvent{id, string(body)})
			}
			applied, pages, rows = append(applied, unit...), pages+len(unit)-1, nil
		default:
			return applied, pages, rows, end
		}
		end = pos
	}
}

// FuzzWALScan: whatever bytes the log file holds, opening and replaying it
// never panics, hands out whole records only — every page image and header
// and every rows record a plain one-unit-at-a-time reading finds whole, in
// order, and nothing else — never returns for redo a rows record that lies
// before a whole group, and resumes appends right after the last whole unit.
// The seeds are a valid log mixing rows records and groups, cut at every
// byte.
func FuzzWALScan(f *testing.F) {
	dir := f.TempDir()
	w, err := createWAL(filepath.Join(dir, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	pg := newPage(3, kindHeap)
	pg.InsertCell([]byte("grouped"))
	for _, commit := range []func() error{
		func() error { return w.appendRows(appendLoggedRow(nil, "prov", []byte("k1"), []byte("v1"))) },
		func() error { return w.appendGroup([]*page{pg}, [storeHeaderSize]byte{0xC9}) },
		func() error { return w.appendRows(appendLoggedRow(nil, "prov", []byte("k2"), nil)) },
		func() error { return w.appendGroup(nil, [storeHeaderSize]byte{0xDB}) },
		func() error {
			return w.appendRows(appendLoggedRow(appendLoggedRow(nil, "prov", []byte("k3"), []byte("v3")), "t", nil, nil))
		},
	} {
		if err := commit(); err != nil {
			f.Fatal(err)
		}
	}
	w.f.Close()
	valid, err := os.ReadFile(filepath.Join(dir, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	f.Add(bytes.Repeat([]byte{0xCA, 0x11, 0xB0, 0xC7}, 8))
	name := filepath.Join(dir, "log") // the fuzz function runs one input at a time
	f.Fuzz(func(t *testing.T, log []byte) {
		if err := os.WriteFile(name, log, 0o644); err != nil {
			t.Fatal(err)
		}
		var applied []walEvent
		w, pages, rows, err := openWAL(name, func(id pageID, image []byte) error {
			applied = append(applied, walEvent{id, string(image)})
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		defer w.f.Close()
		wantApplied, wantPages, wantRows, end := referenceReplay(log)
		if fmt.Sprint(applied) != fmt.Sprint(wantApplied) {
			t.Errorf("applied %d images and headers, want %d (the whole groups)", len(applied), len(wantApplied))
		}
		if pages != wantPages {
			t.Errorf("replay counts %d page images, want %d", pages, wantPages)
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			got[i] = string(r)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantRows) {
			t.Errorf("redo gets %d rows records, want the %d after the last whole group", len(got), len(wantRows))
		}
		if w.size() != int64(end) {
			t.Errorf("appends resume at %d, want %d (after the last whole unit)", w.size(), end)
		}
	})
}

// TestRowsCommitsKeepPoolBound: commits logged as rows leave their pages
// dirty in the pool, and those count against its capacity, so across
// scattered commits over a store several pools large the pool never holds
// more than its capacity plus the pages one commit dirtied first — the bound
// a commit that writes its pages keeps too — and the pages held back
// between groups stay within half the pool.
func TestRowsCommitsKeepPoolBound(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "s.db"), true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(provSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	bp := db.bp
	pool := func() (frames, dirty, held int) {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		return len(bp.frames), bp.dirty, bp.held
	}
	src := bytes.Repeat([]byte("s"), 200)
	rows, groups, maxOpen := 0, db.IOStats().WALFsyncs, 0
	for commit := 0; commit < 1500; commit++ {
		for j := 0; j < 5; j++ {
			loc := fmt.Sprintf("T/c%d/e%d", (commit*7919+j*104729)%997, commit)
			if err := tbl.Insert(Row{int64(commit), []byte(loc), "C", src}); err != nil {
				t.Fatal(err)
			}
		}
		_, dirty, held := pool()
		maxOpen = max(maxOpen, dirty-held) // the pages this commit dirtied first
		if err := db.GroupCommit(); err != nil {
			t.Fatal(err)
		}
		frames, _, held := pool()
		if frames > bp.cap+maxOpen {
			t.Fatalf("commit %d: %d frames resident, over the capacity %d plus the %d pages a commit dirtied", commit, frames, bp.cap, maxOpen)
		}
		if held > bp.cap/2 {
			t.Fatalf("commit %d: %d pages held back, over half the pool", commit, held)
		}
		if held > 0 {
			rows++
		}
	}
	if pages := db.NumPages(); pages < 4*int64(bp.cap) {
		t.Fatalf("test premise: the store has %d pages, want at least four pools", pages)
	}
	if groups = db.IOStats().WALFsyncs - groups - int64(rows); rows < 500 || groups < 10 || maxOpen > bp.cap/8 {
		t.Fatalf("test premise: %d commits logged as rows and %d as groups, at most %d pages dirtied by one; want both kinds, of a few pages each", rows, groups, maxOpen)
	}
	t.Logf("%d commits logged as rows, %d as groups; %d pages, at most %d dirtied first by one commit", rows, groups, db.NumPages(), maxOpen)
}
