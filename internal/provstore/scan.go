package provstore

import (
	"context"
	"iter"
	"slices"
	"sync"
)

// This file is the cursor toolkit of the streaming scan path: Backend scans
// return pull-based iter.Seq2[Record, error] cursors instead of materialized
// []Record slices, so a scan's memory stays proportional to one page/chunk
// rather than to the store, and composite backends (sharded, batching) can
// pipeline ordered merges the way relational engines pipeline operators.
//
// Cursor contract (shared by every Backend implementation):
//
//   - Scan itself never fails; errors are yielded in-stream as the
//     final (Record{}, err) pair, after which the cursor stops. Callers must
//     treat a non-nil error as terminal.
//   - Records are yielded in the documented ordering of the scan.
//   - Breaking out of the range loop (or stopping a Pull cursor) releases
//     every resource the cursor holds — locks, network connections, inner
//     cursors — promptly; nothing leaks and no goroutine is left behind.
//   - Cancelling the context passed at cursor construction yields ctx.Err()
//     at the next record boundary.
//
// CollectScan recovers the old materialized behavior where a caller really
// wants a slice.

// CompareTidLoc orders records by (Tid, Loc) — the display order of the
// paper's Figure 5 and the ordering of the All, ByTid and WithAncestors scans.
func CompareTidLoc(a, b Record) int {
	if a.Tid != b.Tid {
		if a.Tid < b.Tid {
			return -1
		}
		return 1
	}
	return a.Loc.Compare(b.Loc)
}

// CompareLocTid orders records by (Loc, Tid) — the ordering of the ByLoc and
// ByPrefix scans.
func CompareLocTid(a, b Record) int {
	if c := a.Loc.Compare(b.Loc); c != 0 {
		return c
	}
	if a.Tid != b.Tid {
		if a.Tid < b.Tid {
			return -1
		}
		return 1
	}
	return 0
}

// ScanSlice adapts a materialized result to the cursor contract, yielding
// the records in slice order.
func ScanSlice(recs []Record) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for _, r := range recs {
			if !yield(r, nil) {
				return
			}
		}
	}
}

// ScanError is a cursor that yields nothing but err — how a scan reports a
// failure discovered before the first record.
func ScanError(err error) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		yield(Record{}, err)
	}
}

// A cursor's first visit gathers few records — most answers are a handful,
// and a consumer that stops after a few pays for a few — and each later one
// four times as many, up to the ceiling the store passes.
const scanWindowFirst = 16

// A Visit is all a store supplies of its scans: under its read lock, seek to
// where spec (never a WithAncestors scan) starts, resume key included, walk
// at most want records of that one stretch — past spec's bound it ends, or
// in a subtree passes over records (ScanSpec.Beyond) — and append the
// selected ones to buf. T is what the store keeps of a record while a window is out — the
// record, or its number in a log. It returns buf, the last record it passed,
// selected or not (the place to resume after) and whether the stretch may go
// on; what it appended before an error counts.
type Visit[T any] func(spec ScanSpec, buf []T, want int) (window []T, last Record, more bool, err error)

// Idle keeps values reads are done with — window buffers, decoders — for
// the next reads: as many as ran at once, up to idleMax, the rest dropped.
// Unlike a sync.Pool's, what it keeps does not depend on when the collector
// last ran, so neither does what a read allocates.
type Idle[T any] chan T

// idleMax is the most values an Idle keeps: more than the reads a store
// serves at once on a few cores, so a steady load takes every value from
// it, and few enough that what a burst of readers leaves behind stays small
// (8 × 256 records of rel://, 16 KB each).
const idleMax = 8

// NewIdle returns an empty Idle.
func NewIdle[T any]() Idle[T] { return make(Idle[T], idleMax) }

// Get takes an idle value, or the zero T if there is none.
func (l Idle[T]) Get() (v T) {
	select {
	case v = <-l:
	default:
	}
	return v
}

// Put keeps v if fewer than idleMax values are idle.
func (l Idle[T]) Put(v T) {
	select {
	case l <- v:
	default:
	}
}

// Windows is a store's pool of window buffers, each with room for the most
// records the store gathers under one hold of its lock. A cursor takes one
// at its first visit, gathers every window of its stretch into it, and gives
// it back cleared when it ends — so a buffer keeps nothing a consumer was
// handed alive, and a scan allocates no buffer of its own.
type Windows[T any] struct {
	max  int
	idle Idle[*[]T]
}

// NewWindows returns a pool of window buffers of max records.
func NewWindows[T any](max int) *Windows[T] {
	return &Windows[T]{max: max, idle: NewIdle[*[]T]()}
}

func (w *Windows[T]) get() *[]T {
	if buf := w.idle.Get(); buf != nil {
		return buf
	}
	buf := make([]T, 0, w.max)
	return &buf
}

// put clears the first used elements of *buf, all a cursor wrote, and keeps
// it if the pool has room.
func (w *Windows[T]) put(buf *[]T, used int) {
	clear((*buf)[:used])
	w.idle.Put(buf)
}

// ScanStretch is the cursor loop of every store: one stretch of one order,
// streamed in windows of scanWindowFirst records, then four times as many up
// to the size of windows' buffers — what the store will gather under one
// hold of its lock. No lock is held while the consumer runs: a window is
// yielded (record finds a T's record, by reference: the one copy is the
// yield's) after the visit returns, ctx observed before each record, the
// visit's error after the records it gathered, and the next visit resumes
// strictly after the last key this one passed. Every window is gathered into
// the one buffer the cursor takes from windows.
func ScanStretch[T any](ctx context.Context, spec ScanSpec, windows *Windows[T], visit Visit[T], record func(*T) *Record) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		if err := ctx.Err(); err != nil {
			yield(Record{}, err)
			return
		}
		buf, used := windows.get(), 0
		defer func() { windows.put(buf, used) }()
		for want := scanWindowFirst; ; want = min(4*want, windows.max) {
			window, last, more, err := visit(spec, (*buf)[:0], want)
			*buf, used = window[:0], max(used, len(window))
			for i := range window {
				if cerr := ctx.Err(); cerr != nil {
					yield(Record{}, cerr)
					return
				}
				if !yield(*record(&window[i]), nil) {
					return
				}
			}
			if err != nil {
				yield(Record{}, err)
			}
			if err != nil || !more {
				return
			}
			spec = spec.After(last.Tid, last.Loc)
		}
	}
}

// ScanAncestors is the WithAncestors scan of every store: the answers of the
// ByLoc scans spec splits into (ScanSpec.Probe, each stopping at spec's
// bound) — probe appends one to buf: a scan of the shard or tree the
// location lives in, or a Visit — are gathered, then yielded in (Tid, Loc)
// order. The answer is the records at depth-of-loc
// locations, so it is gathered whole: a consumer that stops early has paid
// for all of it. ctx is observed before each probe and each record.
func ScanAncestors[T any](ctx context.Context, spec ScanSpec, probe func(p ScanSpec, buf []T) ([]T, error), record func(*T) *Record) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		var all []T
		var endsBuf, headsBuf [9]int   // room for a location eight labels deep
		ends := append(endsBuf[:0], 0) // the n-th probe answered all[ends[n-1]:ends[n]]
		for n := 1; n <= spec.Loc.Len(); n++ {
			err := ctx.Err()
			if err == nil {
				all, err = probe(spec.probe(n), all)
			}
			if err != nil {
				yield(Record{}, err)
				return
			}
			ends = append(ends, len(all))
		}
		// Each answer ascends in Tid and a probe's location sorts before the
		// next one's: the lowest Tid at a head is next, the earlier on a tie.
		heads := append(headsBuf[:0], ends[:len(ends)-1]...)
		for range all {
			next := -1
			for n, h := range heads {
				if h < ends[n+1] && (next < 0 || record(&all[h]).Tid < record(&all[heads[next]]).Tid) {
					next = n
				}
			}
			if err := ctx.Err(); err != nil {
				yield(Record{}, err)
				return
			}
			if !yield(*record(&all[heads[next]]), nil) {
				return
			}
			heads[next]++
		}
	}
}

// Itself is the record function of windows that hold the records themselves.
func Itself(r *Record) *Record { return r }

// appendScan drains a cursor onto buf; after an error buf holds the records
// that came before it.
func appendScan(buf []Record, scan iter.Seq2[Record, error]) ([]Record, error) {
	for r, err := range scan {
		if err != nil {
			return buf, err
		}
		buf = append(buf, r)
	}
	return buf, nil
}

// CollectScan drains a cursor into a slice — the materialized form of a
// scan, for callers (tests, small stores, simulation wrappers) that want it.
func CollectScan(scan iter.Seq2[Record, error]) ([]Record, error) {
	return appendScan(nil, scan)
}

// MergeScans merges cursors that are each ordered by cmp into one cursor
// ordered by cmp — the streaming k-way merge of the one place k unbounded
// streams meet, a scatter over shards (ShardedBackend.Scan, the planner's
// per-shard subplans). Inputs are pulled lazily, one record at a time — a
// coroutine each, iter.Pull2 — so the merge holds O(k) records however large
// the underlying scans are.
//
// Records carrying the same {Tid, Loc} key are emitted once: the key is
// unique store-wide, so two cursors can only disagree about transport (a
// batching shard's buffer racing its own flush), never content. An error on
// any input ends the merge with that error.
func MergeScans(cmp func(a, b Record) int, scans ...iter.Seq2[Record, error]) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		type cursor struct {
			rec  Record
			err  error
			ok   bool
			next func() (Record, error, bool)
			stop func()
		}
		all := make([]*cursor, 0, len(scans))
		defer func() {
			for _, c := range all {
				c.stop()
			}
		}()
		// Prime every input concurrently: the first pull is where a cursor
		// does its setup work (a snapshot, a network request), and the old
		// scatter-gather overlapped exactly that across shards. Later pulls
		// are inherently serial — only the merge winner advances. Pull2
		// permits next() from different goroutines as long as calls are
		// serialized, which the WaitGroup guarantees.
		var wg sync.WaitGroup
		for _, s := range scans {
			next, stop := iter.Pull2(s)
			c := &cursor{next: next, stop: stop}
			all = append(all, c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.rec, c.err, c.ok = next()
			}()
		}
		wg.Wait()
		var active []*cursor
		for _, c := range all {
			if c.err != nil {
				yield(Record{}, c.err)
				return
			}
			if c.ok {
				active = append(active, c)
			}
		}
		for len(active) > 0 {
			min := 0
			for i := 1; i < len(active); i++ {
				if cmp(active[i].rec, active[min].rec) < 0 {
					min = i
				}
			}
			out := active[min].rec
			if !yield(out, nil) {
				return
			}
			// Advance every cursor whose head carries the emitted key —
			// the winner, plus any duplicate another input also saw.
			for i := 0; i < len(active); {
				c := active[i]
				if c.rec.Tid != out.Tid || !c.rec.Loc.Equal(out.Loc) {
					i++
					continue
				}
				rec, err, ok := c.next()
				if err != nil {
					yield(Record{}, err)
					return
				}
				if !ok {
					c.stop()
					active = slices.Delete(active, i, i+1)
					continue
				}
				c.rec = rec
				i++
			}
		}
	}
}
