package cpdb_test

// Acceptance tests of the end-to-end streaming scan path: Query.Records
// over a live cpdb:// service must cost exactly one /v1/scan round
// trip (the pre-cursor implementation issued one round trip per
// transaction), and a full-store drain must allocate O(page), not O(store)
// — measured by the benchmarks below against a reproduction of the old
// materialized path.

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	cpdb "repro"
	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// startStatService is startService, but keeps the Server handle so tests
// can assert on its per-endpoint counters.
func startStatService(t testing.TB, inner cpdb.Backend) (string, *provhttp.Server) {
	t.Helper()
	srv := provhttp.NewServer(inner)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // reports ErrServerClosed at teardown
	t.Cleanup(func() { hs.Close() })
	return "cpdb://" + ln.Addr().String(), srv
}

// TestRecordsSingleRoundTripOverNetwork: draining Query.Records against a
// cpdb:// store must issue exactly one /v1/scan request — no
// per-transaction scans — and the streamed table must equal the in-process
// one.
func TestRecordsSingleRoundTripOverNetwork(t *testing.T) {
	inner := provstore.NewMemBackend()
	dsn, srv := startStatService(t, inner)
	backend, err := cpdb.OpenBackend(dsn)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOver(t, backend, 1)
	defer s.Close()

	before := srv.Stats()
	var got []cpdb.Record
	for rec, err := range s.Query().Records(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	after := srv.Stats()

	if n := after["endpoint.scan"] - before["endpoint.scan"]; n != 1 {
		t.Errorf("Records issued %d /v1/scan round trips, want exactly 1", n)
	}
	// Pinning the horizon costs one Stat point round trip — cheap and
	// constant, unlike the per-transaction scans it replaced.
	if n := after["endpoint.stat"] - before["endpoint.stat"]; n != 1 {
		t.Errorf("Records issued %d stat round trips, want 1 (the pinned horizon)", n)
	}
	if after["cursors_open"] != 0 {
		t.Errorf("cursors_open = %d after drain", after["cursors_open"])
	}

	// Same table as an in-process run of the same session.
	ref := sessionOver(t, provstore.NewMemBackend(), 1)
	defer ref.Close()
	want, err := ref.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed table over cpdb:// differs from mem://:\n%v\nwant\n%v", got, want)
	}
}

// TestRecordsOverPinnedClientSkipsOpenTransaction: over a verify=pin
// client, Query.Records' horizon is the store's MaxTid, which an unflushed
// append puts in the still-open transaction. The drain answers as of the
// server's root: every sealed record, and none of the open transaction's,
// with no error — the open transaction is invisible to a verified reader
// until a flush seals it, and then it is read.
func TestRecordsOverPinnedClientSkipsOpenTransaction(t *testing.T) {
	ctx := context.Background()
	auth, err := provauth.New(provstore.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	dsn, _ := startStatService(t, auth)
	backend, err := cpdb.OpenBackend(dsn + "?verify=pin&pin=" + provstore.EscapeDSNPath(filepath.Join(t.TempDir(), "root.pin")))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpdb.New(cpdb.Config{Target: cpdb.NewMemTarget("T", cpdb.NewTree()), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ins := func(tid int64, loc string) cpdb.Record {
		return cpdb.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.MustParse(loc)}
	}
	sealed := []cpdb.Record{ins(1, "T/a"), ins(1, "T/b"), ins(2, "T/a/x")}
	for _, batch := range [][]cpdb.Record{sealed[:2], sealed[2:], {ins(3, "T/a/y")}} {
		if err := backend.Append(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() ([]cpdb.Record, error) {
		var got []cpdb.Record
		for rec, err := range s.Query().Records(ctx) {
			if err != nil {
				return got, err
			}
			got = append(got, rec)
		}
		return got, nil
	}
	if got, err := drain(); err != nil || !reflect.DeepEqual(got, sealed) {
		t.Fatalf("Records with transaction 3 open = %v, %v; want the sealed %v", got, err, sealed)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := provstore.Flush(ctx, backend); err != nil {
		t.Fatal(err)
	}
	if got, err := drain(); err != nil || len(got) != 4 {
		t.Fatalf("Records after the flush = %v, %v; want all four records", got, err)
	}
}

// legacyRecords reproduces the pre-cursor Records path — one scan round
// trip per transaction, the whole table materialized — as the benchmark
// baseline the streamed path is measured against.
func legacyRecords(ctx context.Context, b cpdb.Backend) ([]cpdb.Record, error) {
	tids, err := provstore.Tids(ctx, b)
	if err != nil {
		return nil, err
	}
	var out []cpdb.Record
	for _, tid := range tids {
		recs, err := provstore.CollectScan(b.Scan(ctx, provstore.ByTid(tid)))
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// benchStore loads a store with many small transactions for drain
// benchmarks.
func benchStore(b testing.TB, backend cpdb.Backend) int {
	b.Helper()
	ctx := context.Background()
	total := 0
	for tid := int64(1); tid <= 200; tid++ {
		recs := make([]cpdb.Record, 0, 20)
		for i := 0; i < 20; i++ {
			recs = append(recs, cpdb.Record{
				Tid: tid,
				Op:  provstore.OpInsert,
				Loc: cpdb.MustParsePath("T").Child("t" + strconv.FormatInt(tid, 10)).Child("n" + strconv.Itoa(i)),
			})
		}
		if err := backend.Append(ctx, recs); err != nil {
			b.Fatal(err)
		}
		total += len(recs)
	}
	return total
}

// drainAllocsPerRecord drains backend once to warm it (connection, intern
// tables, buffer pool) and returns what a further full Scan(All()) allocates
// per record.
func drainAllocsPerRecord(t *testing.T, backend cpdb.Backend, total int) float64 {
	t.Helper()
	ctx := context.Background()
	drain := func() {
		n := 0
		for _, err := range backend.Scan(ctx, provstore.All()) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != total {
			t.Fatalf("drained %d of %d", n, total)
		}
	}
	drain()
	return testing.AllocsPerRun(3, drain) / float64(total)
}

// TestRemoteDrainAllocBound bounds the codec cost of the remote drain hot
// path: draining the 4000-record bench store over a live cpdb:// connection
// (the client and the in-process server together, over mem://) must stay
// within 3 allocations per record. A record frame is appended into a reused
// buffer on one side and decoded through the path intern table on the
// other, so a warm drain allocates per flush and per unseen path, not per
// record; the JSON stream it replaced cost 12.
func TestRemoteDrainAllocBound(t *testing.T) {
	inner := provstore.NewMemBackend()
	total := benchStore(t, inner)
	dsn, _ := startStatService(t, inner)
	backend, err := cpdb.OpenBackend(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer provstore.Close(backend) //nolint:errcheck // loopback teardown
	perRecord := drainAllocsPerRecord(t, backend, total)
	const maxAllocsPerRecord = 3
	if perRecord > maxAllocsPerRecord {
		t.Errorf("remote drain allocates %.1f objects/record, budget %d", perRecord, maxAllocsPerRecord)
	}
	t.Logf("remote drain: %.2f allocs/record over %d records", perRecord, total)
}

// TestRemoteQueryAllocBound bounds what one small question costs over a
// live cpdb:// connection, the client and the in-process server together:
// a trace, a hist, a mod and a bounded select over the 4000-record bench
// store (mem://), each asked 20 times after a warm-up. Each budget is the
// count, the same in all of 20 runs of the test — 112, 109, 157 and 128 —
// plus 5 %. The client writes each request and reads its answer on the
// caller's goroutine; through net/http's Transport, which hands both to
// goroutines of its own, the same questions cost 163, 160, 208 and 179.
// Every line of a framed answer is a binary frame, decoded through the path
// intern table; with a JSON line per tid, step, end and terminator, a
// json.Decoder per request and a json.Encoder per stream, they cost 194,
// 171, 223 and 194 through the Transport. A -race build allocates 3 to 9
// more per question (20 runs: 115–118, 112–115, 160–163 and 135–137),
// because its sync.Pool drops some of what the frame readers and buffers
// put back; its budgets are 12 higher.
func TestRemoteQueryAllocBound(t *testing.T) {
	_, backend, _ := queryService(t)
	ctx := context.Background()
	for _, c := range []struct {
		text      string
		maxAllocs float64
	}{
		{"trace T/t50/n3", 118},
		{"hist T/t50/n3", 114},
		{"mod T/t50", 165},
		{roundTripQuery, 134},
	} {
		q := provplan.MustParse(c.text)
		ask := func() {
			if _, err := provplan.Collect(ctx, backend, q); err != nil {
				t.Fatal(err)
			}
		}
		ask()
		allocs := testing.AllocsPerRun(20, ask)
		budget := c.maxAllocs
		if raceEnabled {
			budget += 12
		}
		if allocs > budget {
			t.Errorf("%q over cpdb:// allocates %.0f objects, budget %.0f", c.text, allocs, budget)
		}
		t.Logf("%q over cpdb://: %.0f allocs", c.text, allocs)
	}
}

// TestRelDrainAllocBound is the store-side twin: a full in-process
// Scan(All()) of a 10k-record rel:// store must stay within 0.16
// allocations per record — today's 0.1256 plus a quarter. A window is
// decoded eight rows at a time, the paths of each eight substrings of one
// string, and the cursor's buffer, the tree's iterator and the decoder's
// scratch are the store's, kept from scan to scan, so a drain allocates one
// object per eight rows and a few per cursor. A label slab per eight rows
// besides cost 0.2506; a copy of every row and a label slice per path cost
// 2.99; decoding through relstore.Row (a boxed value per column) cost 18.
func TestRelDrainAllocBound(t *testing.T) {
	backend, locs := queryStore(t, "rel://"+t.TempDir()+"/prov.db?create=1", 500, "")
	perRecord := drainAllocsPerRecord(t, backend, len(locs))
	const maxAllocsPerRecord = 0.16
	if perRecord > maxAllocsPerRecord {
		t.Errorf("rel:// drain allocates %.4f objects/record, budget %.2f", perRecord, maxAllocsPerRecord)
	}
	t.Logf("rel:// drain: %.4f allocs/record over %d records", perRecord, len(locs))
}

// TestRelTraceAllocBound bounds what a small answer costs over the
// relational engine: a trace and a hist on a 10k-record rel:// store, asked
// "as of now" so the store resolves the horizon, must each stay under 233
// allocations and 256 KB whatever location they ask about. The allocation
// budget is the worst of the 16 locations, 222 for both in all of 20 runs
// (with -race too), plus 5 %. Each step of the walk is a WithAncestors
// scan, a gather of a few small probes visited straight into it, of which
// the step keeps one record; with a whole cursor per probe, copied out, and
// a map of every transaction's record per step, the worst cost 494. A scan
// of the relation hiding in the read path costs ≈ 36k allocations and 3 MB
// (when MaxTid walked the table).
func TestRelTraceAllocBound(t *testing.T) {
	backend, locs := queryStore(t, "rel://"+t.TempDir()+"/prov.db?create=1", 500, "")
	checkTraceAllocBound(t, "rel://", backend, locs, 233, 256<<10)
}

// TestMemTraceAllocBound is TestRelTraceAllocBound for the in-memory store,
// plain and four-way sharded, at the same 10k records: a trace and a hist
// copy the record numbers of their answers out of the indexes and nothing
// else. The budget (2500 allocations, 128 KB) is an order of magnitude above
// today's cost and below what copying an index of the whole store — 40 KB
// per scan, several scans per trace — would come to.
func TestMemTraceAllocBound(t *testing.T) {
	for _, dsn := range []string{"mem://", "mem://?shards=4"} {
		backend, locs := queryStore(t, dsn, 500, "")
		checkTraceAllocBound(t, dsn, backend, locs, 2500, 128<<10)
	}
}

// checkTraceAllocBound asks a trace and a hist about 16 of locs, "as of now",
// and fails if any one question allocates more than the budget.
func checkTraceAllocBound(t *testing.T, name string, backend cpdb.Backend, locs []path.Path, maxAllocs, maxBytes uint64) {
	t.Helper()
	ctx := context.Background()
	var ms runtime.MemStats
	for _, kind := range []string{provplan.OpTrace, provplan.OpHist} {
		var worstAllocs, worstBytes uint64
		for i := 0; i < len(locs); i += len(locs)/16 + 1 {
			q := relQuery(kind, locs, i)
			runtime.ReadMemStats(&ms)
			allocs, bytes := ms.Mallocs, ms.TotalAlloc
			if _, err := provplan.Collect(ctx, backend, q); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			worstAllocs = max(worstAllocs, ms.Mallocs-allocs)
			worstBytes = max(worstBytes, ms.TotalAlloc-bytes)
		}
		if worstAllocs > maxAllocs || worstBytes > maxBytes {
			t.Errorf("%s over %s allocates up to %d objects / %d bytes, budget %d / %d",
				kind, name, worstAllocs, worstBytes, maxAllocs, maxBytes)
		}
		t.Logf("%s over %s: worst of 16 locations %d allocs, %d bytes", kind, name, worstAllocs, worstBytes)
	}
}

// BenchmarkScanAllStreamed drains the full store through the ScanAll
// cursor — the Query.Records path after the refactor. Compare B/op with
// BenchmarkScanAllMaterialized: the streamed drain's allocations stay flat
// in store size (a chunk of record numbers for the in-memory store; a page for
// file-backed ones) where the materialized path's grow with the table.
func BenchmarkScanAllStreamed(b *testing.B) {
	backend := provstore.NewMemBackend()
	total := benchStore(b, backend)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, err := range backend.Scan(ctx, provstore.All()) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != total {
			b.Fatalf("drained %d of %d", n, total)
		}
	}
}

// benchDrainSharded is the shared body of the tracing-overhead benchmark
// pair: a full drain of the bench store through the sharded scatter-gather
// — the most instrumented local read path (a span per shard plus a cursor
// wrap per shard stream when a recorder is present).
func benchDrainSharded(b *testing.B, traced bool) {
	backend, err := provstore.OpenDSN("mem://?shards=4")
	if err != nil {
		b.Fatal(err)
	}
	total := benchStore(b, backend)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dctx := ctx
		if traced {
			dctx = provtrace.WithRecorder(ctx, provtrace.NewRecorder("", ""))
		}
		n := 0
		for _, err := range backend.Scan(dctx, provstore.All()) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != total {
			b.Fatalf("drained %d of %d", n, total)
		}
	}
}

// BenchmarkScanAllStreamedSharded is the untraced baseline for the tracing
// overhead pair; compare ns/op with BenchmarkScanAllStreamedTraced — the
// traced drain must stay within a few percent, because span cost is per
// shard stream, never per record.
func BenchmarkScanAllStreamedSharded(b *testing.B) { benchDrainSharded(b, false) }

// BenchmarkScanAllStreamedTraced is the same drain with a live span
// recorder on the context (a fresh one per iteration, the real per-request
// cost).
func BenchmarkScanAllStreamedTraced(b *testing.B) { benchDrainSharded(b, true) }

// BenchmarkScanAllMaterialized is the pre-refactor Records path (one
// ScanTid per transaction, everything gathered into a slice), kept as the
// allocation baseline.
func BenchmarkScanAllMaterialized(b *testing.B) {
	backend := provstore.NewMemBackend()
	total := benchStore(b, backend)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := legacyRecords(ctx, backend)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != total {
			b.Fatalf("materialized %d of %d", len(recs), total)
		}
	}
}

// discardAppends is a store whose Append keeps nothing, so what an append
// costs over it is the wire's alone.
type discardAppends struct{ provstore.Backend }

func (discardAppends) Append(context.Context, []provstore.Record) error { return nil }

// TestRemoteAppendAllocBound bounds what one append costs over a live
// cpdb:// connection, the client and the in-process server together: a
// five-record transaction of the curate workload's shape, appended 50 times
// after a warm-up into a store that keeps nothing. The budget is the count,
// the same in each of 20 runs of the test: 50, of which the request body is
// one exact-size buffer, so a body that costs more shows here (through
// net/http's Transport, with a *bytes.Reader for the body, it was 98). A
// -race build allocates a few more (53–54), because its sync.Pool drops
// some of what the frame readers put back; its budget is 12 higher.
func TestRemoteAppendAllocBound(t *testing.T) {
	dsn, _ := startStatService(t, discardAppends{provstore.NewMemBackend()})
	client, err := cpdb.OpenBackend(dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { provstore.Close(client) }) //nolint:errcheck // loopback teardown
	ctx := context.Background()
	txn := make([]provstore.Record, 5)
	for i := range txn {
		txn[i] = provstore.Record{Tid: 1000, Op: provstore.OpInsert, Loc: path.MustParse("T/k07/r" + strconv.Itoa(4200+i) + "/f" + strconv.Itoa(i))}
	}
	txn[2].Op, txn[2].Src = provstore.OpCopy, path.MustParse("S/k03/r0917/f2")
	appendOne := func() {
		if err := client.Append(ctx, txn); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	allocs := testing.AllocsPerRun(50, appendOne)
	budget := 50.0
	if raceEnabled {
		budget += 12
	}
	if allocs > budget {
		t.Errorf("a 5-record append over cpdb:// allocates %.0f objects, budget %.0f", allocs, budget)
	}
	t.Logf("a 5-record append over cpdb://: %.0f allocs", allocs)
}
