package provstore

import (
	"context"
	"io"
	"iter"
	"slices"
	"strconv"
	"sync"

	"repro/internal/path"
	"repro/internal/provtrace"
)

// This file implements the group-commit batching layer of the ingest
// pipeline: appends from any number of writers are buffered, and a flush is
// one Append of everything buffered to the underlying store — so a store
// that pays a durability round trip per append (an fsync, a network round
// trip) pays it once per group instead, the classic group-commit trade of
// tail latency for throughput.

// A Flusher is a backend (or backend wrapper) holding buffered writes that
// can be pushed down on demand. The context changes no durability semantics
// — it exists so a flush issued while serving a request keeps that request's
// identity: a remote client's flush round trip propagates the caller's trace
// and span ids instead of minting fresh ones, and local buffers attach their
// flush spans to the in-flight trace.
type Flusher interface {
	Flush(ctx context.Context) error
}

// Flush pushes buffered writes down if b buffers any; it is a no-op for
// write-through backends.
func Flush(ctx context.Context, b Backend) error {
	if f, ok := b.(Flusher); ok {
		return f.Flush(ctx)
	}
	return nil
}

// Close flushes b if it buffers writes and closes it if it holds external
// resources; both are optional capabilities, so Close is safe on any
// backend. The flush error wins over the close error (acknowledged records
// that could not be persisted matter more than a failed file release).
func Close(b Backend) error {
	err := Flush(context.Background(), b)
	if c, ok := b.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// A BatchingBackend wraps a Backend and buffers appended records until
// BatchSize accumulate, then flushes them with one Append — one group commit.
// Reads are read-through, so queries always see every acknowledged append:
// Stat flushes first and delegates, while scans stream an ordered merge of
// the pending buffer and the inner store's cursor without forcing a flush.
// What batching defers is only the store round trip and its durability
// cost.
//
// Records are validated when enqueued — structural checks plus the
// {Tid, Loc} key constraint against both the pending buffer and the store —
// so a rejected Append buffers nothing and flush errors are exceptional.
// It is safe for concurrent use; writers briefly serialize on the buffer
// lock, and the flusher holds it for the duration of the group commit (the
// group-commit leader pattern: followers queue behind the leader's fsync).
type BatchingBackend struct {
	mu    sync.Mutex
	inner Backend
	size  int
	buf   []Record            // acknowledged and not yet flushed, in arrival order
	keys  map[recKey]struct{} // the {Tid, Loc} keys of buf
}

// recKey is a record's {Tid, Loc} key.
type recKey struct {
	tid int64
	loc path.Path
}

var (
	_ Backend = (*BatchingBackend)(nil)
	_ Flusher = (*BatchingBackend)(nil)
)

// NewBatching wraps inner with a group-commit buffer of the given batch
// size (records). A size of 1 or less flushes on every append.
func NewBatching(inner Backend, size int) *BatchingBackend {
	if size < 1 {
		size = 1
	}
	return &BatchingBackend{
		inner: inner,
		size:  size,
		keys:  make(map[recKey]struct{}),
	}
}

// BatchSize returns the configured flush threshold.
func (b *BatchingBackend) BatchSize() int { return b.size }

// Inner returns the wrapped store.
func (b *BatchingBackend) Inner() Backend { return b.inner }

// Append implements Backend: the batch is validated and enqueued, and the
// buffer is flushed once it holds at least BatchSize records.
func (b *BatchingBackend) Append(ctx context.Context, recs []Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Validate against the batch itself, the pending buffer, and the store
	// before enqueueing anything.
	if err := ValidateBatch(recs); err != nil {
		return err
	}
	keys := make([]recKey, len(recs))
	for i, r := range recs {
		keys[i] = recKey{r.Tid, r.Loc}
		if _, dup := b.keys[keys[i]]; dup {
			return &DupKeyError{Tid: r.Tid, Loc: r.Loc}
		}
	}
	if err := checkStored(ctx, b.inner, recs); err != nil {
		return err
	}
	b.buf = append(b.buf, recs...)
	for _, k := range keys {
		b.keys[k] = struct{}{}
	}
	if len(b.buf) >= b.size {
		return b.flushLocked(ctx)
	}
	return nil
}

// Pending returns the number of buffered, unflushed records.
func (b *BatchingBackend) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Flush implements Flusher: everything buffered goes down as one Append.
func (b *BatchingBackend) Flush(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked(ctx)
}

// Close flushes the buffer and closes the wrapped store if it holds
// external resources; the flush error wins.
func (b *BatchingBackend) Close() error {
	err := b.Flush(context.Background())
	if c, ok := b.inner.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// flushLocked drains the buffer inside a "batch:flush" span. On error the buffered records are KEPT so
// the acknowledged records are not lost and a later Flush (or read) can
// retry; eager validation at enqueue time makes this path exceptional (a
// racing writer on the same key, or a failing store). A store whose Append
// is not atomic (shards racing another writer) may have applied part of the
// group before failing; a retry then reports DupKeyError — loud, and
// recoverable by inspection, where silently dropping acknowledged
// provenance would not be.
//
// The append deliberately runs under context.Background(): the records were
// acknowledged under the context of the Append that buffered them, so a
// later caller's cancellation must not be able to strand them. ctx only
// attaches the span to an in-flight trace.
func (b *BatchingBackend) flushLocked(ctx context.Context) error {
	if len(b.buf) == 0 {
		return nil
	}
	_, sp := provtrace.Start(ctx, "batch:flush")
	if sp != nil {
		sp.SetAttr("records", strconv.Itoa(len(b.buf)))
	}
	err := b.inner.Append(context.Background(), b.buf)
	sp.SetErr(err)
	sp.End()
	if err == nil {
		b.buf = b.buf[:0] // Append keeps no reference to it
		clear(b.keys)
	}
	return err
}

// checkStored refuses recs if b already holds one of their keys: one Stat,
// then a Lookup of each record at or below b's MaxTid — a record of a later
// transaction cannot be stored, and an in-order writer's every record is one.
func checkStored(ctx context.Context, b Backend, recs []Record) error {
	st, err := b.Stat(ctx)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Tid > st.MaxTid {
			continue
		}
		if _, ok, err := Lookup(ctx, b, r.Tid, r.Loc); err != nil {
			return err
		} else if ok {
			return &DupKeyError{Tid: r.Tid, Loc: r.Loc}
		}
	}
	return nil
}

// --- read-through ----------------------------------------------------------
//
// Stat flushes first, then delegates — its single answer must reflect the
// buffer, and a flush is the cheapest way to guarantee it. Scans do better:
// they stream a merge of a buffer snapshot and the inner store's cursor, so
// a scan — a point read included — costs no durability round trip and the
// buffer keeps accumulating toward a full group.

// Scan implements Backend: the buffered records spec selects, filtered before
// they are sorted, merge with the inner store's cursor — a resumed scan never
// forces a flush either. The buffer is snapshotted here, before the inner
// cursor's own snapshot at its first pull: a record flushed in between is on
// both sides, never on neither.
func (b *BatchingBackend) Scan(ctx context.Context, spec ScanSpec) iter.Seq2[Record, error] {
	var buf []Record
	b.mu.Lock()
	for _, r := range b.buf {
		if spec.Match(r) {
			buf = append(buf, r)
		}
	}
	b.mu.Unlock()
	slices.SortFunc(buf, spec.Order())
	return mergeBuffered(ctx, spec.Order(), buf, b.inner.Scan(ctx, spec))
}

// mergeBuffered merges buf, sorted by cmp, into a cursor ordered by cmp: one
// side is a slice, so a loop over the cursor does it — no pull iterator. A
// {Tid, Loc} key on both sides (the buffer racing its own flush) is yielded
// once, an error from the cursor ends the stream there, and ctx, which the
// slice cannot observe, is checked before every record.
func mergeBuffered(ctx context.Context, cmp func(a, b Record) int, buf []Record, inner iter.Seq2[Record, error]) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		emit := func(r Record) bool {
			if err := ctx.Err(); err != nil {
				yield(Record{}, err)
				return false
			}
			return yield(r, nil)
		}
		rest := buf
		for r, err := range inner {
			if err != nil {
				yield(Record{}, err)
				return
			}
			for ; len(rest) > 0 && cmp(rest[0], r) < 0; rest = rest[1:] {
				if !emit(rest[0]) {
					return
				}
			}
			if len(rest) > 0 && cmp(rest[0], r) == 0 {
				rest = rest[1:]
			}
			if !emit(r) {
				return
			}
		}
		for _, r := range rest {
			if !emit(r) {
				return
			}
		}
	}
}

// Stat implements Backend.
func (b *BatchingBackend) Stat(ctx context.Context) (Stat, error) {
	if err := b.Flush(ctx); err != nil {
		return Stat{}, err
	}
	return b.inner.Stat(ctx)
}
