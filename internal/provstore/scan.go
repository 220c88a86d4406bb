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

// ctxChecked enforces the contract's cancellation clause on a composite
// cursor whose parts may not all observe ctx themselves (a batching
// backend's buffer snapshot, say): ctx is re-checked before every record,
// and cancellation ends the stream with ctx.Err().
func ctxChecked(ctx context.Context, scan iter.Seq2[Record, error]) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for r, err := range scan {
			if err == nil {
				if cerr := ctx.Err(); cerr != nil {
					yield(Record{}, cerr)
					return
				}
			}
			if !yield(r, err) || err != nil {
				return
			}
		}
	}
}

// CollectScan drains a cursor into a slice — the materialized form of a
// scan, for callers (tests, small stores, simulation wrappers) that want
// the whole result at once.
func CollectScan(scan iter.Seq2[Record, error]) ([]Record, error) {
	var out []Record
	for r, err := range scan {
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MergeScans merges cursors that are each ordered by cmp into one cursor
// ordered by cmp — the streaming k-way merge under the sharded backend's
// scatter reads and the batching backend's buffer+store read-through. Inputs
// are pulled lazily, one record at a time, so the merge holds O(k) records
// however large the underlying scans are.
//
// Records carrying the same {Tid, Loc} key are emitted once: the key is
// unique store-wide, so two cursors can only disagree about transport (a
// batching buffer racing its own flush), never content. An error on any
// input ends the merge with that error.
func MergeScans(cmp func(a, b Record) int, scans ...iter.Seq2[Record, error]) iter.Seq2[Record, error] {
	switch len(scans) {
	case 0:
		return ScanSlice(nil)
	case 1:
		return scans[0]
	}
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
