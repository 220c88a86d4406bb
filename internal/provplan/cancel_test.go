package provplan

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/path"
	"repro/internal/provstore"
)

// cancelOnScan wraps a backend and fires cancel during the first prefix
// scan — simulating a caller hanging up while the first BFS wave of Mod is
// in flight against the shards.
type cancelOnScan struct {
	provstore.Backend
	cancel context.CancelFunc
	scans  atomic.Int64
}

func (c *cancelOnScan) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	c.scans.Add(1)
	if spec.Kind == provstore.KindPrefix {
		c.cancel()
	}
	return c.Backend.Scan(ctx, spec)
}

// TestModCancelBetweenWaves: a Mod over an 8-shard store whose context is
// cancelled during the first BFS wave must stop before launching the second
// wave (the copy-source region), return context.Canceled, and leak no
// goroutines.
func TestModCancelBetweenWaves(t *testing.T) {
	ctxBg := context.Background()
	sharded := provstore.NewShardedMem(8)
	// A two-wave story: T/b was copied from T/a, so Mod(T/b) must chase the
	// source region T/a in a second wave.
	if err := sharded.Append(ctxBg, []provstore.Record{
		{Tid: 1, Op: provstore.OpInsert, Loc: path.MustParse("T/a")},
		{Tid: 2, Op: provstore.OpCopy, Loc: path.MustParse("T/b"), Src: path.MustParse("T/a")},
	}); err != nil {
		t.Fatal(err)
	}

	// Sanity: uncancelled, the walk reaches the insert through the copy.
	mods, err := Collect(ctxBg, sharded, &Query{Op: OpMod, Path: "T/b", AsOf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mods.Tids) != 2 {
		t.Fatalf("full Mod = %v, want [1 2]", mods.Tids)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(ctxBg)
	defer cancel()
	wrapped := &cancelOnScan{Backend: sharded, cancel: cancel}
	_, err = Collect(ctx, wrapped, &Query{Op: OpMod, Path: "T/b", AsOf: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Mod returned %v, want context.Canceled", err)
	}
	// Only the first wave's pair of scans may have started; the second wave
	// (source region T/a) must never launch.
	if n := wrapped.scans.Load(); n > 2 {
		t.Fatalf("cancelled Mod issued %d scans; the second wave ran", n)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Fatalf("goroutines leaked: %d now vs %d before", now, base)
	}
}

// TestTraceCancelled: an already-cancelled context surfaces from Trace (and
// through it Src and Hist) as context.Canceled.
func TestTraceCancelled(t *testing.T) {
	b := provstore.NewShardedMem(4)
	if err := b.Append(context.Background(), []provstore.Record{
		{Tid: 1, Op: provstore.OpInsert, Loc: path.MustParse("T/a")},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, b, &Query{Op: OpTrace, Path: "T/a", AsOf: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Trace: %v", err)
	}
	if _, err := Collect(ctx, b, &Query{Op: OpSrc, Path: "T/a", AsOf: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Src: %v", err)
	}
	if _, err := Collect(ctx, b, &Query{Op: OpMod, Path: "T", AsOf: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Mod: %v", err)
	}
}
