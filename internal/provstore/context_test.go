package provstore

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"testing"
	"time"

	"repro/internal/path"
)

// blockingBackend wraps a Backend; scan cursors park on first pull until
// the context is cancelled, then yield ctx.Err() — a stand-in for a slow
// remote shard.
type blockingBackend struct {
	Backend
	entered chan struct{} // one send per blocked scan
}

func (b *blockingBackend) Scan(ctx context.Context, _ ScanSpec) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		b.entered <- struct{}{}
		<-ctx.Done()
		yield(Record{}, ctx.Err())
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base, failing the test if it never does — the leak guard the cancellation
// tests run under -race.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d before cancellation", runtime.NumGoroutine(), base)
}

// TestShardedQueryCancelMidMerge cancels a streaming merge while a shard's
// cursor is parked mid-pull: the merged cursor must yield context.Canceled
// (via errors.Is) and every Pull2 coroutine behind the merge must be
// released — the cursor-path equivalent of the old scatter-gather
// cancellation guarantee.
func TestShardedQueryCancelMidMerge(t *testing.T) {
	const shards = 8
	entered := make(chan struct{}, shards)
	parts := make([]Backend, shards)
	for i := range parts {
		parts[i] = &blockingBackend{Backend: NewMemBackend(), entered: entered}
	}
	sb, err := NewSharded(parts...)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CollectScan(sb.Scan(ctx, ByTid(1)))
		done <- err
	}()
	// The merge pulls shard cursors lazily; wait until the first one is
	// parked inside its scan, then pull the rug.
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled merge returned %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled merge never returned")
	}
	waitGoroutines(t, base)
}

// TestCancelledContextShortCircuits verifies every store type refuses work
// under an already-cancelled context, surfacing context.Canceled cleanly.
func TestCancelledContextShortCircuits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := Record{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/a")}
	stores := map[string]Backend{
		"mem":      NewMemBackend(),
		"sharded":  NewShardedMem(4),
		"batching": NewBatching(NewMemBackend(), 8),
	}
	for name, b := range stores {
		if err := b.Append(ctx, []Record{rec}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Append under cancelled ctx: %v", name, err)
		}
		if _, _, err := Lookup(ctx, b, 1, rec.Loc); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Lookup under cancelled ctx: %v", name, err)
		}
		if _, err := CollectScan(b.Scan(ctx, ByPrefix(path.MustParse("T")))); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: ScanLocPrefix under cancelled ctx: %v", name, err)
		}
		if _, err := CollectScan(b.Scan(ctx, All())); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: ScanAll under cancelled ctx: %v", name, err)
		}
		if _, err := b.Stat(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: MaxTid under cancelled ctx: %v", name, err)
		}
	}
	// Fanout itself refuses to launch under a cancelled context.
	ran := false
	if err := Fanout(ctx, 4, func(int) error { ran = true; return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("Fanout under cancelled ctx: %v", err)
	}
	if ran {
		t.Error("Fanout launched work under a cancelled context")
	}
}

// TestBatchingFlushSurvivesCancelledAppendCtx: records acknowledged into
// the buffer must still reach the store even if the context that appended
// them is cancelled afterwards — flushes run detached from caller contexts.
func TestBatchingFlushSurvivesCancelledAppendCtx(t *testing.T) {
	inner := NewMemBackend()
	b := NewBatching(inner, 100)
	ctx, cancel := context.WithCancel(context.Background())
	if err := b.Append(ctx, []Record{{Tid: 1, Op: OpInsert, Loc: path.MustParse("T/a")}}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := b.Flush(context.Background()); err != nil {
		t.Fatalf("flush after append-ctx cancel: %v", err)
	}
	if st, _ := inner.Stat(context.Background()); st.Count != 1 {
		t.Fatalf("flushed %d records, want 1", st.Count)
	}
}
