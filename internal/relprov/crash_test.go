package relprov_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/path"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/relprov"
	"repro/internal/relstore"
)

// commitTxns appends txns transactions of five records each, one durable
// Append per transaction, and returns the acknowledged records. Locs
// spread over many subtrees so both indexes split leaves all over.
func commitTxns(t *testing.T, b *relprov.Backend, firstTid int64, txns int) []provstore.Record {
	t.Helper()
	var acked []provstore.Record
	for i := 0; i < txns; i++ {
		recs := txnRecs(firstTid + int64(i))
		if err := b.Append(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, recs...)
	}
	return acked
}

// txnRecs returns the five records of transaction tid.
func txnRecs(tid int64) []provstore.Record {
	var recs []provstore.Record
	for j := 0; j < 5; j++ {
		loc := fmt.Sprintf("T/c%d/entry-%d/field-%d-with-a-long-label", (int(tid)*7+j)%23, tid, j)
		recs = append(recs, rec(tid, provstore.OpCopy, loc, fmt.Sprintf("S/src%d/x%d", j, tid)))
	}
	return recs
}

// checkStore opens the durable store in dir — which recovers it — and
// requires exactly the acknowledged records: Count, MaxTid, every record by
// point lookup, and a full clean walk of the primary tree and of by_loc.
func checkStore(t *testing.T, dir string, want []provstore.Record) {
	t.Helper()
	checkStoreOpened(t, dir, relprov.Options{Durable: true}, want)
}

func checkStoreOpened(t *testing.T, dir string, opts relprov.Options, want []provstore.Record) {
	t.Helper()
	b, err := relprov.OpenFile(filepath.Join(dir, "prov.db"), opts)
	if err != nil {
		t.Fatalf("crashed store does not open: %v", err)
	}
	defer b.Close()
	ctx := context.Background()
	if st, err := b.Stat(ctx); err != nil || st.Count != len(want) {
		t.Errorf("Count = %d, %v; want %d", st.Count, err, len(want))
	}
	if st, err := b.Stat(ctx); err != nil || st.MaxTid != want[len(want)-1].Tid {
		t.Errorf("MaxTid = %d, %v; want %d", st.MaxTid, err, want[len(want)-1].Tid)
	}
	for _, r := range want {
		if got, ok, err := provstore.Lookup(ctx, b, r.Tid, r.Loc); err != nil || !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("acknowledged record %v: Lookup = %v, %v, %v", r, got, ok, err)
		}
	}
	all, err := provstore.CollectScan(b.Scan(ctx, provstore.All()))
	if err != nil || len(all) != len(want) {
		t.Errorf("primary walk: %d records, %v; want %d", len(all), err, len(want))
	}
	byLoc, err := provstore.CollectScan(b.Scan(ctx, provstore.ByPrefix(path.MustParse("T"))))
	if err != nil || len(byLoc) != len(want) {
		t.Errorf("by_loc walk: %d records, %v; want %d", len(byLoc), err, len(want))
	}
	tbl, err := b.DB().Table(relprov.TableName)
	if err != nil {
		t.Fatal(err)
	}
	provtest.CheckCovering(t, tbl)
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// crashedDir builds a store directory out of a data file and a log.
func crashedDir(t *testing.T, data, log []byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string][]byte{"prov.db": data, "prov.db.wal": log} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCrashMatrix: a commit logs its rows and leaves its pages in memory;
// pages reach the data file only inside a logged group, and the data file is
// fsynced only at a checkpoint, so after a crash it may hold any subset of
// the page writes since the last one. Whatever subset that is, the log — page
// groups with their pager headers, and the rows records behind the last
// group — brings back every acknowledged record.
func TestCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prov.db")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	acked := commitTxns(t, b, 1, 40)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	old := readFile(t, file) // the data file as of the last checkpoint

	b, err = relprov.OpenFile(file, relprov.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	acked = append(acked, commitTxns(t, b, 41, 59)...)
	last := len(readFile(t, file+".wal")) // where the last commit's rows record starts
	acked = append(acked, commitTxns(t, b, 100, 1)...)
	// The crash: no Close. Everything above was acknowledged.
	log := readFile(t, file+".wal")
	if provobs.Stats(provstore.Registries(b)...)["rel.checkpoints"] != 0 || len(log) == 0 {
		t.Fatal("test premise: the commits must stay below the checkpoint threshold")
	}
	if !bytes.Equal(readFile(t, file), old) {
		t.Fatal("test premise: the commits must log their rows and write no page")
	}
	// Then the commits' pages go out as one group behind their rows records
	// (Size writes every page back): the log has it, and the data file has
	// it unsynced.
	if _, err := b.DB().Size(); err != nil {
		t.Fatal(err)
	}
	grouped, now := readFile(t, file+".wal"), readFile(t, file)
	if !bytes.HasPrefix(grouped, log) || len(grouped) == len(log) {
		t.Fatal("test premise: the group must follow the rows records in the log")
	}
	if len(now) <= len(old) {
		t.Fatal("test premise: the commits must allocate pages")
	}

	t.Run("nothing reached the data file", func(t *testing.T) {
		checkStore(t, crashedDir(t, old, log), acked)
	})
	t.Run("half the pages reached it, one torn", func(t *testing.T) {
		// The group was killed midway through its data-file writes.
		rng := rand.New(rand.NewSource(2006))
		data := append([]byte(nil), old...)
		var written []int
		for pg := 0; pg*relstore.PageSize < len(now); pg++ {
			if rng.Intn(2) == 0 {
				continue
			}
			lo, hi := pg*relstore.PageSize, (pg+1)*relstore.PageSize
			if hi > len(data) {
				data = append(data, make([]byte, hi-len(data))...)
			}
			copy(data[lo:hi], now[lo:hi])
			written = append(written, pg)
		}
		torn := written[len(written)/2] * relstore.PageSize
		copy(data[torn+relstore.PageSize/2:torn+relstore.PageSize], make([]byte, relstore.PageSize/2))
		checkStore(t, crashedDir(t, data, grouped), acked)
	})
	t.Run("a torn image group behind rows records", func(t *testing.T) {
		// The group was killed in its log write, before any page of it
		// reached the data file: the rows records before it are redone.
		checkStore(t, crashedDir(t, old, grouped[:len(log)+(len(grouped)-len(log))/2]), acked)
	})
	t.Run("reopened without durable=1", func(t *testing.T) {
		checkStoreOpened(t, crashedDir(t, old, log), relprov.Options{}, acked)
	})
	t.Run("between the data sync and the truncate", func(t *testing.T) {
		checkStore(t, crashedDir(t, now, grouped), acked)
	})
	t.Run("during recovery", func(t *testing.T) {
		// Recovery rewrote and fsynced the data file but died before it
		// truncated the log: the next open replays the same log again.
		crashed := crashedDir(t, old, log)
		recovered, err := relprov.OpenFile(filepath.Join(crashed, "prov.db"), relprov.Options{Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := recovered.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, "prov.db.wal"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		checkStore(t, crashed, acked)
	})
	t.Run("an unfinished group", func(t *testing.T) {
		// The last commit's record lost its tail: it was never acknowledged,
		// so its transaction is gone whole and the store still opens clean.
		checkStore(t, crashedDir(t, old, log[:last+(len(log)-last)/2]), acked[:len(acked)-5])
	})
	t.Run("a rows record torn in its last byte", func(t *testing.T) {
		checkStore(t, crashedDir(t, old, log[:len(log)-1]), acked[:len(acked)-5])
	})

	// A group larger than the pool: a store of several pools' worth of
	// pages, then one group whose records scatter over by_loc, so the pages
	// it dirties outnumber the frames. The group is inserted into the
	// durable store as Append inserts it and committed by hand, which is
	// where a kill lands between the two.
	const bigTxns = 6000
	file = filepath.Join(t.TempDir(), "prov.db")
	big, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	acked = nil
	for first := int64(1); first <= bigTxns; first += bigTxns / 5 {
		var recs []provstore.Record
		for tid := first; tid < first+bigTxns/5; tid++ {
			recs = append(recs, txnRecs(tid)...)
		}
		if err := big.Append(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, recs...)
	}
	if pages := big.DB().NumPages(); pages < 4*relstore.DefaultCachePages {
		t.Fatalf("test premise: the store has %d pages, want at least four pools (%d)", pages, 4*relstore.DefaultCachePages)
	}
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := relstore.Open(file, false, true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.Table(relprov.TableName)
	if err != nil {
		t.Fatal(err)
	}
	var group []provstore.Record
	for i := 0; i < 600; i++ {
		under := int64(i*10 + 1)
		loc := fmt.Sprintf("T/c%d/entry-%d/added-%d", (int(under)*7+i%5)%23, under, i)
		group = append(group, rec(bigTxns+1, provstore.OpInsert, loc, ""))
	}
	_, missesBefore := db.CacheStats()
	for _, r := range group { // relprov's Append without its GroupCommit
		e, err := tbl.Key(relstore.Row{r.Tid, r.Loc.AppendBinary(nil), r.Op.String(), r.Src.AppendBinary(nil)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertEncoded(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := db.CacheStats(); misses-missesBefore <= relstore.DefaultCachePages {
		t.Fatalf("test premise: the group read %d pages, want more than the pool's %d", misses-missesBefore, relstore.DefaultCachePages)
	}
	t.Run("a group larger than the pool, killed before its commit", func(t *testing.T) {
		checkStore(t, crashedDir(t, readFile(t, file), readFile(t, file+".wal")), acked)
	})
	if err := db.GroupCommit(); err != nil {
		t.Fatal(err)
	}
	t.Run("a group larger than the pool, killed after its commit", func(t *testing.T) {
		checkStore(t, crashedDir(t, readFile(t, file), readFile(t, file+".wal")), append(acked, group...))
	})
}

// TestCrashBeforeFirstAppend: a new durable store is committed before its
// open returns, catalog and table, so a crash before the first Append
// leaves a store that opens, holds no record and takes appends that survive
// Close and a reopen.
func TestCrashBeforeFirstAppend(t *testing.T) {
	file := filepath.Join(t.TempDir(), "prov.db")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dir := crashedDir(t, readFile(t, file), readFile(t, file+".wal")) // no Close
	crashed, err := relprov.OpenFile(filepath.Join(dir, "prov.db"), relprov.Options{Durable: true})
	if err != nil {
		t.Fatalf("a store crashed before its first Append does not open: %v", err)
	}
	if st, err := crashed.Stat(context.Background()); err != nil || st.Count != 0 {
		t.Fatalf("Stat = %+v, %v; want 0 records", st, err)
	}
	acked := commitTxns(t, crashed, 1, 1)
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	checkStore(t, dir, acked)
}

// TestCloseLeavesEmptyLog: a clean Close checkpoints, so the store carries
// no dead log along and the next open has nothing to replay.
func TestCloseLeavesEmptyLog(t *testing.T) {
	file := filepath.Join(t.TempDir(), "prov.db")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	acked := commitTxns(t, b, 1, 10)
	if fi, err := os.Stat(file + ".wal"); err != nil || fi.Size() == 0 {
		t.Fatalf("log before Close: %v, %v; want the ten commits", fi, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(file + ".wal"); err != nil || fi.Size() != 0 {
		t.Fatalf("log after Close: %d bytes, %v; want 0", fi.Size(), err)
	}
	closed := readFile(t, file)
	reopened, err := relprov.OpenFile(file, relprov.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, file), closed) {
		t.Fatal("reopening a cleanly closed store repaired pages; want none")
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	checkStore(t, filepath.Dir(file), acked)
}

// TestGroupCommitOneFsync: a durable append costs one log fsync and no data
// fsync, and a five-record transaction logs its rows, not its pages; the
// data file is fsynced once per checkpoint, when the log has grown past its
// threshold and is truncated.
func TestGroupCommitOneFsync(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prov.db")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	before := provobs.Stats(provstore.Registries(b)...)
	const n = 25
	acked := commitTxns(t, b, 1, n)
	after := provobs.Stats(provstore.Registries(b)...)
	delta := func(name string) int64 { return after[name] - before[name] }
	if delta("rel.wal.fsyncs") != n || delta("rel.data.fsyncs") != 0 || delta("rel.checkpoints") != 0 {
		t.Fatalf("%d appends cost %d log fsyncs, %d data fsyncs, %d checkpoints; want %d, 0, 0",
			n, delta("rel.wal.fsyncs"), delta("rel.data.fsyncs"), delta("rel.checkpoints"), n)
	}
	if perTxn := delta("rel.wal.bytes") / n; perTxn > 1024 {
		t.Errorf("a five-record transaction logs %d bytes, want at most 1 KB", perTxn)
	}

	// Keep committing, forty transactions an Append, until the log is
	// checkpointed once. Every few Appends one leaves more than half the
	// pool dirty and logs its pages as a group, so the log grows by groups
	// as well as rows.
	appends, tid := int64(n), int64(n)
	for provobs.Stats(provstore.Registries(b)...)["rel.checkpoints"] == 0 {
		if appends > n+500 {
			t.Fatal("no checkpoint after 500 appends of forty transactions")
		}
		var recs []provstore.Record
		for i := 0; i < 40; i++ {
			tid++
			recs = append(recs, txnRecs(tid)...)
		}
		if err := b.Append(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, recs...)
		appends++
	}
	after = provobs.Stats(provstore.Registries(b)...)
	if delta("rel.wal.fsyncs") != appends || delta("rel.data.fsyncs") != 1 || delta("rel.checkpoints") != 1 {
		t.Errorf("%d appends and a checkpoint cost %d log fsyncs, %d data fsyncs, %d checkpoints; want %d, 1, 1",
			appends, delta("rel.wal.fsyncs"), delta("rel.data.fsyncs"), delta("rel.checkpoints"), appends)
	}
	if fi, err := os.Stat(file + ".wal"); err != nil || fi.Size() >= 4<<20 {
		t.Errorf("log after its checkpoint: %d bytes, %v", fi.Size(), err)
	}
	// A crash right here finds the checkpointed data file and a short log.
	checkStore(t, crashedDir(t, readFile(t, file), readFile(t, file+".wal")), acked)

	// Close is one write-back and one checkpoint: a store opened, appended to
	// once and closed has fsynced its data file once.
	small, err := relprov.OpenFile(filepath.Join(dir, "small.db"), relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	commitTxns(t, small, 1, 1)
	if err := small.Close(); err != nil {
		t.Fatal(err)
	}
	if st := small.DB().IOStats(); st.DataFsyncs != 1 || st.Checkpoints != 1 {
		t.Errorf("open, one Append, Close cost %d data fsyncs and %d checkpoints; want 1 and 1", st.DataFsyncs, st.Checkpoints)
	}
}

// TestBatchingThroughDecoratorIsOneCommit: a decorator between the batching
// layer and a durable store needs no write method of its own for group commit
// to reach the store — one flush is one inner Append, hence one log fsync
// however many transactions it carries.
func TestBatchingThroughDecoratorIsOneCommit(t *testing.T) {
	store, err := relprov.OpenFile(filepath.Join(t.TempDir(), "prov.db"), relprov.Options{Create: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fsyncs := func() int64 { return provobs.Stats(provstore.Registries(store)...)["rel.wal.fsyncs"] }
	b := provstore.NewBatching(provtest.NewTamper(store, nil), 64)
	before := fsyncs()
	for tid := int64(1); tid <= 5; tid++ {
		recs := []provstore.Record{
			rec(tid, provstore.OpInsert, fmt.Sprintf("T/e%d", tid), ""),
			rec(tid, provstore.OpCopy, fmt.Sprintf("T/e%d/x", tid), "S/x"),
		}
		if err := b.Append(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs() - before; got != 0 {
		t.Fatalf("%d log fsyncs before the flush, want 0", got)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs() - before; got != 1 {
		t.Errorf("flushing five transactions through a decorator cost %d log fsyncs, want 1", got)
	}
	if st, err := store.Stat(context.Background()); err != nil || st.Count != 10 {
		t.Errorf("Stat = %+v, %v; want Count 10", st, err)
	}
}
