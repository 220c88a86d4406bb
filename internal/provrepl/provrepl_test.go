package provrepl

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/path"
	"repro/internal/provobs"
	"repro/internal/provstore"
)

// fastOpts keeps test appliers snappy.
func fastOpts(o options) options {
	if o.Poll == 0 {
		o.Poll = 5 * time.Millisecond
	}
	return o
}

func mustNew(t *testing.T, primary provstore.Backend, replicas []provstore.Backend, o options) *ReplicatedBackend {
	t.Helper()
	b, err := newReplicated(primary, replicas, fastOpts(o))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tidBatch builds one transaction's worth of insert records.
func tidBatch(tid int64, n int) []provstore.Record {
	recs := make([]provstore.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, provstore.Record{
			Tid: tid,
			Op:  provstore.OpInsert,
			Loc: path.New("T", fmt.Sprintf("c%d", tid), fmt.Sprintf("n%02d", i)),
		})
	}
	return recs
}

func collectAll(t *testing.T, b provstore.Backend) []provstore.Record {
	t.Helper()
	recs, err := provstore.CollectScan(b.Scan(context.Background(), provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func waitCaughtUp(t *testing.T, b *ReplicatedBackend) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.WaitForReplicas(ctx); err != nil {
		t.Fatalf("replicas never caught up: %v", err)
	}
}

// TestReplicasConvergeToPrimary: after WaitForReplicas, every replica's
// ScanAll is byte-identical to the primary's — the log-shipping invariant.
func TestReplicasConvergeToPrimary(t *testing.T) {
	ctx := context.Background()
	primary := provstore.NewMemBackend()
	reps := []provstore.Backend{provstore.NewMemBackend(), provstore.NewMemBackend()}
	b := mustNew(t, primary, reps, options{ApplyBatch: 8})
	for tid := int64(1); tid <= 25; tid++ {
		if err := b.Append(ctx, tidBatch(tid, 7)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, b)
	want := collectAll(t, primary)
	if len(want) != 25*7 {
		t.Fatalf("primary holds %d records, want %d", len(want), 25*7)
	}
	for i, r := range reps {
		if got := collectAll(t, r); !reflect.DeepEqual(got, want) {
			t.Errorf("replica %d diverged: %d records vs primary's %d", i, len(got), len(want))
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(ctx, tidBatch(99, 1)); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close = %v, want errClosed", err)
	}
}

// gateStore wraps a replica store with switchable fault injection: appends
// and reads can be made to fail, and appends can be slowed, so tests can
// kill an applier mid-apply and heal it again.
type gateStore struct {
	provstore.Backend
	failAppends atomic.Bool
	failReads   atomic.Bool
	appendDelay atomic.Int64 // nanoseconds
	appends     atomic.Int64 // records appended through the gate
}

var errGate = errors.New("provrepl_test: gate closed")

func (g *gateStore) Append(ctx context.Context, recs []provstore.Record) error {
	if g.failAppends.Load() {
		return errGate
	}
	if d := g.appendDelay.Load(); d > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(d)):
		}
	}
	if err := g.Backend.Append(ctx, recs); err != nil {
		return err
	}
	g.appends.Add(int64(len(recs)))
	return nil
}

func (g *gateStore) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	if g.failReads.Load() {
		return provstore.ScanError(errGate)
	}
	return g.Backend.Scan(ctx, spec)
}

func (g *gateStore) Stat(ctx context.Context) (provstore.Stat, error) {
	if g.failReads.Load() {
		return provstore.Stat{}, errGate
	}
	return g.Backend.Stat(ctx)
}

// TestReplicaRestartResumesFromHighWater is the crash/restart acceptance
// case: an applier dies mid-apply leaving the replica a strict prefix of
// the primary; a fresh ReplicatedBackend over the same stores recomputes
// the high-water {Tid, Loc} mark from the replica and ships exactly the
// missing suffix — converging byte-identically without re-sending the
// prefix the replica already holds.
func TestReplicaRestartResumesFromHighWater(t *testing.T) {
	ctx := context.Background()
	primary := provstore.NewMemBackend()
	repMem := provstore.NewMemBackend()
	gate := &gateStore{Backend: repMem}

	// Small apply chunks so the kill lands between applier flushes.
	b1 := mustNew(t, primary, []provstore.Backend{gate}, options{ApplyBatch: 4})
	for tid := int64(1); tid <= 10; tid++ {
		if err := b1.Append(ctx, tidBatch(tid, 5)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, b1)

	// Kill mid-apply: the gate rejects replica appends, then more commits
	// land on the primary, then the handle is torn down with a drain
	// window too short to matter — the replica is left behind.
	gate.failAppends.Store(true)
	for tid := int64(11); tid <= 20; tid++ {
		if err := b1.Append(ctx, tidBatch(tid, 5)); err != nil {
			t.Fatal(err)
		}
	}
	b1.opts.CloseTimeout = 20 * time.Millisecond
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := repMem.Stat(ctx)
	behind := st.Count
	if err != nil {
		t.Fatal(err)
	}
	if behind != 50 {
		t.Fatalf("replica holds %d records after the kill, want the 50 applied before it", behind)
	}

	// Restart: a fresh handle over the same stores. Its applier must
	// recover the high-water mark from the replica's own content and ship
	// only the missing records.
	shippedBefore := gate.appends.Load()
	gate.failAppends.Store(false)
	b2 := mustNew(t, primary, []provstore.Backend{gate}, options{ApplyBatch: 64})
	waitCaughtUp(t, b2)
	want := collectAll(t, primary)
	if got := collectAll(t, repMem); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica did not converge after restart: %d records vs primary's %d", len(got), len(want))
	}
	if shipped := gate.appends.Load() - shippedBefore; shipped != 50 {
		t.Errorf("restart shipped %d records, want exactly the 50 missing (high-water resume, not a re-send)", shipped)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAnyLagZeroNeverTorn: under read=any, concurrent
// readers scanning through the replicated handle must only ever observe
// whole transactions — never a torn prefix where a transaction's records
// are partially applied — and always in (Tid, Loc) order.
func TestReadAnyLagZeroNeverTorn(t *testing.T) {
	const (
		tids   = 40
		perTid = 7
	)
	ctx := context.Background()
	primary := provstore.NewMemBackend()
	reps := []provstore.Backend{provstore.NewMemBackend(), provstore.NewMemBackend()}
	// ApplyBatch below perTid forces the appliers to choose chunk cuts;
	// they must still cut only at transaction boundaries.
	b := mustNew(t, primary, reps, options{Read: readAny, ApplyBatch: 3})
	defer b.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				perSeen := make(map[int64]int)
				var prev provstore.Record
				n := 0
				for rec, err := range b.Scan(ctx, provstore.All()) {
					if err != nil {
						t.Errorf("ScanAll: %v", err)
						return
					}
					if n > 0 && provstore.CompareTidLoc(prev, rec) >= 0 {
						t.Errorf("ScanAll out of order: %v after %v", rec, prev)
						return
					}
					prev = rec
					n++
					perSeen[rec.Tid]++
				}
				for tid, got := range perSeen {
					if got != perTid {
						torn.Add(1)
						t.Errorf("observed torn transaction %d: %d of %d records", tid, got, perTid)
						return
					}
				}
			}
		}()
	}
	for tid := int64(1); tid <= tids; tid++ {
		if err := b.Append(ctx, tidBatch(tid, perTid)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, b)
	close(stop)
	wg.Wait()
	if torn.Load() > 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
	// And the converged replicas are byte-identical to the primary.
	want := collectAll(t, primary)
	for i, r := range reps {
		if got := collectAll(t, r); !reflect.DeepEqual(got, want) {
			t.Errorf("replica %d diverged after the run", i)
		}
	}
}

// TestReadFailoverToPrimary: a replica failing a read is demoted and the
// call transparently retried on the primary; once the replica heals, its
// applier puts it back into the rotation.
func TestReadFailoverToPrimary(t *testing.T) {
	ctx := context.Background()
	primary := provstore.NewMemBackend()
	gate := &gateStore{Backend: provstore.NewMemBackend()}
	// A long poll keeps the demotion cooldown window comfortably wider
	// than the assertions that run inside it.
	b := mustNew(t, primary, []provstore.Backend{gate}, options{Read: readAny, Poll: 300 * time.Millisecond})
	defer b.Close()
	if err := b.Append(ctx, tidBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, b)

	// Healthy: the replica serves the read.
	loc := path.New("T", "c1", "n00")
	if _, ok, err := provstore.Lookup(ctx, b, 1, loc); err != nil || !ok {
		t.Fatalf("Lookup via replica = %v, %v", ok, err)
	}

	// Break the replica's reads: the same lookup must still succeed (via
	// the primary) and the replica must leave the rotation.
	gate.failReads.Store(true)
	if _, ok, err := provstore.Lookup(ctx, b, 1, loc); err != nil || !ok {
		t.Fatalf("Lookup with failing replica = %v, %v (want primary failover)", ok, err)
	}
	if r := b.pickReplica(); r != nil {
		t.Fatal("failed replica still in the read rotation")
	}
	if _, err := b.Stat(ctx); err != nil {
		t.Fatalf("Count with demoted replica: %v", err)
	}

	// Heal: once the cooldown passes and the applier completes a clean
	// pass, the replica rejoins.
	gate.failReads.Store(false)
	b.wakeAll()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && b.pickReplica() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if b.pickReplica() == nil {
		t.Fatal("healed replica never rejoined the rotation")
	}
}

// TestLaggingReplicaLeavesRotation: a healthy replica trailing the
// acknowledged appends is out of the read rotation, the gauges name its
// lag, and a read issued meanwhile still finds the newest record
// (read-your-writes). After catch-up the lag gauge returns to 0.
func TestLaggingReplicaLeavesRotation(t *testing.T) {
	ctx := context.Background()
	primary := provstore.NewMemBackend()
	gate := &gateStore{Backend: provstore.NewMemBackend()}
	// Slow replica appends (not failures): the applier stays healthy while
	// visibly behind. ApplyBatch 2 means one delay per tid, so the lag
	// window stays open for seconds.
	b := mustNew(t, primary, []provstore.Backend{gate}, options{Read: readAny, ApplyBatch: 2, Poll: time.Second})
	defer b.Close()
	if err := b.Append(ctx, tidBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, b)
	gate.appendDelay.Store(int64(400 * time.Millisecond))
	for tid := int64(2); tid <= 6; tid++ {
		if err := b.Append(ctx, tidBatch(tid, 2)); err != nil {
			t.Fatal(err)
		}
	}

	if g := provobs.Stats(provstore.Registries(b)...); g["repl.shipped_tid"] != 6 || g["repl.lag.0"] < 4 {
		t.Errorf("gauges = %v, want shipped_tid=6 and lag.0 >= 4", g)
	}
	if r := b.pickReplica(); r != nil {
		t.Error("lagging replica still in the rotation")
	}
	newest := tidBatch(6, 2)[0].Loc
	if _, ok, err := provstore.Lookup(ctx, gate.Backend, 6, newest); err != nil || ok {
		t.Fatalf("replica already holds tid 6 (%v, %v): the lag window closed before the read", ok, err)
	}
	if _, ok, err := provstore.Lookup(ctx, b, 6, newest); err != nil || !ok {
		t.Errorf("Lookup of the newest tid while the replica lags = %v, %v; want the record", ok, err)
	}

	gate.appendDelay.Store(0)
	waitCaughtUp(t, b)
	if g := provobs.Stats(provstore.Registries(b)...); g["repl.lag.0"] != 0 {
		t.Errorf("after catch-up repl.lag.0 = %d, want 0", g["repl.lag.0"])
	}
}

// TestCloseMidApplyLeaksNoGoroutines: tearing down the backend while an
// applier is busy (slow replica appends, records still queued) must stop
// every goroutine.
func TestCloseMidApplyLeaksNoGoroutines(t *testing.T) {
	ctx := context.Background()
	base := runtime.NumGoroutine()
	primary := provstore.NewMemBackend()
	gate := &gateStore{Backend: provstore.NewMemBackend()}
	gate.appendDelay.Store(int64(20 * time.Millisecond))
	b := mustNew(t, primary, []provstore.Backend{gate}, options{ApplyBatch: 2, CloseTimeout: 10 * time.Millisecond})
	for tid := int64(1); tid <= 30; tid++ {
		if err := b.Append(ctx, tidBatch(tid, 4)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // let the applier get into a pass
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Fatalf("goroutines leaked: %d now vs %d before", now, base)
	}
}

// TestScanAllMidStreamFailover: for all five scan kinds, a replica cursor
// dying after k records resumes on the primary from the last delivered key —
// the consumer sees one uninterrupted, duplicate-free stream in the scan's
// own order, finished by the primary. Caller cancellation is returned, not
// failed over.
func TestScanAllMidStreamFailover(t *testing.T) {
	ctx := context.Background()
	hot := path.New("T", "hot")
	open := func(t *testing.T, cutAfter int) (*ReplicatedBackend, *cutAfterStore, provstore.Backend) {
		primary := provstore.NewMemBackend()
		gate := &cutAfterStore{Backend: provstore.NewMemBackend(), cutAfter: cutAfter}
		b := mustNew(t, primary, []provstore.Backend{gate}, options{Read: readAny})
		t.Cleanup(func() { b.Close() })
		for tid := int64(1); tid <= 6; tid++ {
			batch := append(tidBatch(tid, 5), provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: hot})
			if tid%2 == 0 {
				batch = append(batch, provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: hot.Child("x")})
			}
			if err := b.Append(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
		waitCaughtUp(t, b)
		return b, gate, primary
	}
	for _, c := range []struct {
		spec     provstore.ScanSpec
		cutAfter int
	}{
		{provstore.All(), 10},
		{provstore.All().After(2, hot), 0},
		{provstore.ByTid(3), 2},
		{provstore.ByLoc(hot), 2},
		{provstore.ByPrefix(path.New("T")), 17},
		{provstore.WithAncestors(hot.Child("x")), 4},
	} {
		t.Run(c.spec.String(), func(t *testing.T) {
			b, gate, primary := open(t, c.cutAfter)
			want, err := provstore.CollectScan(primary.Scan(ctx, c.spec))
			if err != nil || len(want) <= c.cutAfter {
				t.Fatalf("primary holds %d records of the scan (%v), want more than %d", len(want), err, c.cutAfter)
			}
			gate.arm.Store(true)
			got, err := provstore.CollectScan(b.Scan(ctx, c.spec))
			if err != nil {
				t.Fatalf("scan with mid-stream replica failure: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("failover stream returned %d records, want %d identical to primary:\n got  %v\nwant %v", len(got), len(want), got, want)
			}
			if gate.cuts.Load() == 0 {
				t.Fatal("the replica cursor was never cut; the test exercised nothing")
			}
		})
	}
	t.Run("cancellation", func(t *testing.T) {
		b, gate, _ := open(t, 1<<30)
		gate.arm.Store(true)
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		n := 0
		var terminal error
		for _, err := range b.Scan(cctx, provstore.All()) {
			if err != nil {
				terminal = err
				break
			}
			if n++; n == 3 {
				cancel()
			}
		}
		if !errors.Is(terminal, context.Canceled) || n >= 30 {
			t.Fatalf("cancelled scan ended after %d records with %v, want context.Canceled", n, terminal)
		}
		if g := provobs.Stats(provstore.Registries(b)...); g["repl.healthy.0"] != 1 {
			t.Errorf("caller cancellation demoted the replica: %v", g)
		}
	})
}

// cutAfterStore yields cutAfter records of a scan then fails the cursor
// in-stream, once armed.
type cutAfterStore struct {
	provstore.Backend
	arm      atomic.Bool
	cuts     atomic.Int64
	cutAfter int
}

func (c *cutAfterStore) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	inner := c.Backend.Scan(ctx, spec)
	if !c.arm.Load() {
		return inner
	}
	return func(yield func(provstore.Record, error) bool) {
		n := 0
		for rec, err := range inner {
			if err != nil {
				yield(provstore.Record{}, err)
				return
			}
			if n == c.cutAfter {
				c.cuts.Add(1)
				yield(provstore.Record{}, errGate)
				return
			}
			n++
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// TestOutOfOrderCommitRewinds: a commit whose tid sorts below the shipped
// high-water mark (sessions with partitioned tid ranges sharing one handle)
// is detected at acknowledgement and repaired — the applier rewinds to the
// out-of-order tid and ships exactly the missing records, skipping what the
// replica already holds, and the high-water mark never regresses.
func TestOutOfOrderCommitRewinds(t *testing.T) {
	ctx := context.Background()
	primary := provstore.NewMemBackend()
	gate := &gateStore{Backend: provstore.NewMemBackend()}
	b := mustNew(t, primary, []provstore.Backend{gate}, options{ApplyBatch: 4})
	defer b.Close()
	for _, tid := range []int64{2, 3, 4, 6, 7} {
		if err := b.Append(ctx, tidBatch(tid, 3)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, b)
	if n := gate.appends.Load(); n != 15 {
		t.Fatalf("shipped %d records before the out-of-order commit, want 15", n)
	}

	// Tid 5 lands after tids 6 and 7 have shipped: without the rewind the
	// keyset applier would skip past it forever.
	if err := b.Append(ctx, tidBatch(5, 3)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, b)
	want := collectAll(t, primary)
	got := collectAll(t, gate.Backend)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replica did not repair the out-of-order commit: %d records vs primary's %d", len(got), len(want))
	}
	if n := gate.appends.Load(); n != 18 {
		t.Errorf("total shipped = %d records, want 18 (the repair ships only the missing tid, no re-send)", n)
	}
	if g := provobs.Stats(provstore.Registries(b)...); g["repl.applied_tid.0"] != 7 || g["repl.lag.0"] != 0 {
		t.Errorf("gauges after repair = %v, want applied_tid.0=7 lag.0=0 (high water must not regress)", g)
	}
}
