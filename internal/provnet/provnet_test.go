package provnet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/path"
	"repro/internal/provnet"
	"repro/internal/provstore"
	"repro/internal/update"
)

func charged(t *testing.T) (*provnet.ChargedBackend, *netsim.Conn, *netsim.Conn, *netsim.Clock) {
	t.Helper()
	clock := netsim.NewClock()
	write := netsim.NewConn("prov-write", clock, netsim.CostModel{RTT: 50 * time.Millisecond, PerRecord: 10 * time.Millisecond})
	read := netsim.NewConn("prov-read", clock, netsim.CostModel{RTT: 30 * time.Millisecond, PerRecord: time.Millisecond})
	return provnet.New(provstore.NewMemBackend(), write, read), write, read, clock
}

func rec(tid int64, loc string) provstore.Record {
	return provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.MustParse(loc)}
}

// TestChargesWritePerBatch: one write round trip per Append whatever it
// carries — hence one per flush of a batching layer above, however many
// transactions that flush spans.
func TestChargesWritePerBatch(t *testing.T) {
	b, write, _, clock := charged(t)
	if err := b.Append(context.Background(), []provstore.Record{rec(1, "T/a"), rec(1, "T/b"), rec(1, "T/c")}); err != nil {
		t.Fatal(err)
	}
	st := write.Stats()
	if st.Calls != 1 || st.Records != 3 {
		t.Errorf("write stats = %+v", st)
	}
	// 50ms RTT + 3×10ms records (+ byte cost 0).
	if clock.Now() < 80*time.Millisecond {
		t.Errorf("clock = %v", clock.Now())
	}
	if inner, _ := b.Inner().Stat(context.Background()); inner.Count != 3 {
		t.Errorf("inner count = %d", inner.Count)
	}

	batching := provstore.NewBatching(b, 64)
	for tid := int64(2); tid <= 6; tid++ {
		if err := batching.Append(context.Background(), []provstore.Record{rec(tid, "T/a"), rec(tid, "T/b")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := batching.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := write.Stats(); st.Calls != 2 || st.Records != 13 {
		t.Errorf("write stats after one flush of five transactions = %+v, want 2 calls, 13 records", st)
	}
}

func TestChargesReads(t *testing.T) {
	b, _, read, _ := charged(t)
	b.Append(context.Background(), []provstore.Record{rec(1, "T/a"), rec(2, "T/a")})
	before := read.Stats().Calls
	if _, _, err := provstore.Lookup(context.Background(), b, 1, path.MustParse("T/a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := provstore.NearestAncestor(context.Background(), b, 1, path.MustParse("T/a/b")); err != nil {
		t.Fatal(err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByTid(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByLoc(path.MustParse("T/a")))); err != nil {
		t.Fatal(err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByPrefix(path.MustParse("T")))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := read.Stats().Calls - before; got != 6 {
		t.Errorf("read calls = %d, want 6", got)
	}
}

// TestFaultAbortsBeforeWrite: a dropped round trip must leave the
// provenance store untouched — the consistency property §1.3 demands of
// high-level interfaces.
func TestFaultAbortsBeforeWrite(t *testing.T) {
	clock := netsim.NewClock()
	write := netsim.NewConn("w", clock, netsim.CostModel{RTT: time.Millisecond})
	read := netsim.NewConn("r", clock, netsim.CostModel{RTT: time.Millisecond})
	b := provnet.New(provstore.NewMemBackend(), write, read)
	write.InjectFaults(1.0, 7)
	err := b.Append(context.Background(), []provstore.Record{rec(1, "T/a")})
	if !errors.Is(err, netsim.ErrNetwork) {
		t.Fatalf("want ErrNetwork, got %v", err)
	}
	if st, _ := b.Inner().Stat(context.Background()); st.Count != 0 {
		t.Error("failed round trip reached the store")
	}
	// Read faults propagate on every read surface.
	read.InjectFaults(1.0, 7)
	if _, _, err := provstore.Lookup(context.Background(), b, 1, path.MustParse("T/a")); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("read fault: %v", err)
	}
	if _, _, err := provstore.NearestAncestor(context.Background(), b, 1, path.MustParse("T/a/b")); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("ancestor fault: %v", err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByTid(1))); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("scan fault: %v", err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByLoc(path.MustParse("T/a")))); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("scanloc fault: %v", err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.ByPrefix(path.MustParse("T")))); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("scanprefix fault: %v", err)
	}
	if _, err := provstore.CollectScan(b.Scan(context.Background(), provstore.WithAncestors(path.MustParse("T/a")))); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("scanancestors fault: %v", err)
	}
	if _, err := provstore.Tids(context.Background(), b); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("tids fault: %v", err)
	}
	if _, err := b.Stat(context.Background()); !errors.Is(err, netsim.ErrNetwork) {
		t.Errorf("stat fault: %v", err)
	}
}

// TestCancelledCallerIsNotCharged: a caller that hung up before dialing pays
// for no round trip, on any of the five methods — Stat included, which used
// to charge first.
func TestCancelledCallerIsNotCharged(t *testing.T) {
	b, write, read, _ := charged(t)
	if err := b.Append(context.Background(), []provstore.Record{rec(1, "T/a")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	writes, reads := write.Stats().Calls, read.Stats().Calls
	appendErr := b.Append(ctx, []provstore.Record{rec(2, "T/a")})
	_, _, lookupErr := provstore.Lookup(ctx, b, 1, path.MustParse("T/a"))
	_, _, ancestorErr := provstore.NearestAncestor(ctx, b, 1, path.MustParse("T/a/b"))
	_, scanErr := provstore.CollectScan(b.Scan(ctx, provstore.All()))
	_, statErr := b.Stat(ctx)
	for what, err := range map[string]error{
		"Append": appendErr, "Lookup": lookupErr, "NearestAncestor": ancestorErr, "Scan": scanErr, "Stat": statErr,
	} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: %v, want context.Canceled", what, err)
		}
	}
	if w, r := write.Stats().Calls, read.Stats().Calls; w != writes || r != reads {
		t.Errorf("cancelled calls were charged: write calls %d → %d, read calls %d → %d", writes, w, reads, r)
	}
}

// TestChargedScanWithAncestors covers the combined scan's charging.
func TestChargedScanWithAncestors(t *testing.T) {
	b, _, read, _ := charged(t)
	b.Append(context.Background(), []provstore.Record{rec(1, "T/a"), rec(2, "T/a")})
	before := read.Stats()
	recs, err := provstore.CollectScan(b.Scan(context.Background(), provstore.WithAncestors(path.MustParse("T/a/deep"))))
	if err != nil || len(recs) != 2 {
		t.Fatalf("ScanLocWithAncestors = %v, %v", recs, err)
	}
	after := read.Stats()
	if after.Calls != before.Calls+1 || after.Records != before.Records+2 {
		t.Errorf("charging wrong: %+v -> %+v", before, after)
	}
}

// TestTrackerOverCharged runs trackers over the charged backend and checks
// the round-trip profile the paper describes: deferred methods touch the
// network only at commit.
func TestTrackerOverCharged(t *testing.T) {
	b, write, read, _ := charged(t)
	tr := provstore.MustNew(provstore.HierTrans, provstore.Config{Backend: b})
	tr.Begin()
	tr.OnInsert(insEff("T/x"))
	tr.OnInsert(insEff("T/y"))
	if write.Stats().Calls != 0 || read.Stats().Calls != 0 {
		t.Error("deferred ops must not touch the network")
	}
	if _, err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if write.Stats().Calls != 1 {
		t.Errorf("commit should be one round trip, got %d", write.Stats().Calls)
	}
}

func insEff(loc string) (e update.Effect) {
	e.Inserted = []path.Path{path.MustParse(loc)}
	return e
}
