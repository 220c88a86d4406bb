package provrepl

import (
	"context"
	"fmt"
	"iter"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/path"
	"repro/internal/provauth"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// A replica is one replica store plus its applier's state. The hw* fields
// are the applier goroutine's alone; everything the router or Gauges reads
// crosses goroutines through the atomics.
type replica struct {
	idx   int
	store provstore.Backend
	wake  chan struct{} // capacity 1; kick() never blocks

	healthy      atomic.Bool  // in the read rotation; restored by a clean pass
	failing      atomic.Bool  // the applier's last pass failed
	synced       atomic.Int64 // shipped version this replica has fully applied
	appliedTid   atomic.Int64 // high-water transaction id (gauge)
	appliedRecs  atomic.Int64 // records shipped by this handle's applier (gauge)
	demotedUntil atomic.Int64 // unix nanos; out of the read rotation until then

	// rewindTo, when non-zero, tells the applier an out-of-order commit
	// landed at or above this tid behind the high-water mark; the next
	// pass re-ships from that tid, skipping records the replica already
	// holds. Writers set it (keeping the minimum), the applier consumes it.
	rewindTo atomic.Int64

	// High-water mark: the largest {Tid, Loc} key the replica holds. Owned
	// by the applier goroutine; recomputed from the replica itself at
	// startup and after any apply error (the crash-restart path).
	hwTid   int64
	hwLoc   path.Path
	hwValid bool

	// applyBuf is the applier's batch buffer, kept from pass to pass and
	// cleared after each so it pins no record's paths while idle.
	applyBuf []provstore.Record
}

// setRewind requests a rewind to tid, keeping the smallest pending target.
func (r *replica) setRewind(tid int64) {
	for {
		cur := r.rewindTo.Load()
		if cur != 0 && cur <= tid {
			return
		}
		if r.rewindTo.CompareAndSwap(cur, tid) {
			return
		}
	}
}

// kick nudges the applier without blocking; a nudge during a pass stays
// buffered so the pass is immediately followed by another.
func (r *replica) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// applier is the per-replica shipping loop: each pass drains the primary's
// seeked All().After cursor from the replica's high-water mark into the
// replica, then the loop parks until an append kicks it, the poll interval
// expires (records written to the primary outside this handle), or the
// backend closes. An error marks the replica unhealthy, invalidates the
// high-water mark (it is recomputed from the replica — the same code path a
// process restart takes), and retries after a poll-interval backoff.
func (b *ReplicatedBackend) applier(r *replica) {
	defer b.wg.Done()
	for {
		shippedBefore := b.shipped.Load()
		if err := b.applyPass(r); err != nil {
			if b.ctx.Err() != nil {
				return
			}
			r.healthy.Store(false)
			r.failing.Store(true)
			r.hwValid = false
			select {
			case <-b.ctx.Done():
				return
			case <-time.After(b.opts.Poll):
			}
			continue
		}
		// The pass drained everything visible when it started, so the
		// replica holds at least every append acknowledged before it.
		r.synced.Store(shippedBefore)
		r.healthy.Store(true)
		r.failing.Store(false)
		select {
		case <-b.ctx.Done():
			return
		case <-r.wake:
		case <-time.After(b.opts.Poll):
		}
	}
}

// applyPass ships everything the primary holds beyond the replica's
// high-water mark, in (Tid, Loc) order, chunked at ApplyBatch but cut only
// at transaction boundaries — so the replica's content stays
// transaction-atomic whenever the primary's appends are.
//
// A pending rewind (an out-of-order commit landed behind the high-water
// mark) restarts the walk at the rewound tid instead: records up to the old
// high-water key are probed on the replica first and skipped when already
// present, so the repair ships only what is missing, and the high-water
// mark never regresses. If the rewound pass fails, the rewind target is
// restored so the retry repeats the repair.
func (b *ReplicatedBackend) applyPass(r *replica) (err error) {
	// Apply passes run with no incoming request, so their traces root at
	// the process-wide background sink (nil when tracing is off). Idle
	// passes never call End, so only passes that shipped records or failed
	// file a trace — the poll loop does not flood the ring buffer.
	ctx := b.ctx
	var sp *provtrace.Span
	var appliedBefore int64
	if st := provtrace.Default(); st != nil {
		appliedBefore = r.appliedRecs.Load()
		ctx, sp = st.StartRoot(b.ctx, "repl:apply")
		defer func() {
			n := r.appliedRecs.Load() - appliedBefore
			if n == 0 && err == nil {
				return
			}
			sp.SetAttr("records", strconv.FormatInt(n, 10))
			sp.SetErr(err)
			sp.End()
		}()
	}
	if !r.hwValid {
		if err := b.recoverHighWater(r); err != nil {
			return err
		}
	}
	fromTid, fromLoc := r.hwTid, r.hwLoc
	var dedupUpTo *provstore.Record // old high-water key during a rewind
	if rw := r.rewindTo.Swap(0); rw > 0 && rw <= r.hwTid {
		old := provstore.Record{Tid: r.hwTid, Loc: r.hwLoc}
		dedupUpTo = &old
		// Strictly after (rw, forest root) is every record of tid rw and
		// beyond — record locations are never the root.
		fromTid, fromLoc = rw, path.Path{}
		defer func() {
			if err != nil {
				r.setRewind(rw) // the repair did not finish; retry it
			}
		}()
	}
	buf := r.applyBuf[:0]
	if buf == nil {
		buf = make([]provstore.Record, 0, b.opts.ApplyBatch)
	}
	defer func() {
		clear(buf[:cap(buf)])
		r.applyBuf = buf[:0]
	}()
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		start := time.Now()
		if err := r.store.Append(ctx, buf); err != nil {
			return err
		}
		b.applyDur.Observe(time.Since(start).Nanoseconds())
		last := buf[len(buf)-1]
		if last.Tid > r.hwTid || (last.Tid == r.hwTid && r.hwLoc.Compare(last.Loc) < 0) {
			r.hwTid, r.hwLoc = last.Tid, last.Loc
			r.appliedTid.Store(last.Tid)
		}
		r.appliedRecs.Add(int64(len(buf)))
		buf = buf[:0]
		return nil
	}
	scan := b.primary.Scan(ctx, provstore.All().After(fromTid, fromLoc))
	if b.opts.Verify {
		scan = b.verifiedScanAfter(ctx, fromTid, fromLoc)
	}
	for rec, serr := range scan {
		if serr != nil {
			return serr
		}
		if dedupUpTo != nil {
			if provstore.CompareTidLoc(rec, *dedupUpTo) <= 0 {
				if _, ok, lerr := provstore.Lookup(ctx, r.store, rec.Tid, rec.Loc); lerr != nil {
					return lerr
				} else if ok {
					continue // the replica already holds it
				}
			} else {
				dedupUpTo = nil // past the old high water: back to pure append
			}
		}
		if len(buf) >= b.opts.ApplyBatch && rec.Tid != buf[len(buf)-1].Tid {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = append(buf, rec)
	}
	return flush()
}

// verifiedScanAfter adapts the primary's proven stream to the plain record
// stream applyPass consumes: the stream's root must be admitted by the
// shared anchor, over a consistency proof fetched from — but verified
// against — the primary, then each record's inclusion proof is checked
// against it before the record crosses to a replica. Without the anchor,
// verified shipping from a remote primary would only check each pass's
// self-consistency: a primary that rewrote history and honestly re-proved
// everything against its regenerated tree would still ship cleanly. A bad
// proof or an unanchorable root fails the pass, so a tampered primary
// blocks shipping rather than propagating. Only sealed transactions appear
// in the proven stream, so a verified replica trails the primary by any
// still-open transaction until Flush seals it.
func (b *ReplicatedBackend) verifiedScanAfter(ctx context.Context, afterTid int64, afterLoc path.Path) iter.Seq2[provstore.Record, error] {
	auth := b.primary.(provauth.Authority) // checked in newReplicated
	return func(yield func(provstore.Record, error) bool) {
		var root provauth.Root
		anchored := false
		for pr, err := range auth.ScanProven(ctx, provstore.All().After(afterTid, afterLoc)) {
			if err != nil {
				yield(provstore.Record{}, err)
				return
			}
			if !anchored || pr.Root != root {
				b.admitMu.Lock()
				aerr := b.anchor.Admit(ctx, auth, pr.Root, provauth.Root{}, nil)
				b.admitMu.Unlock()
				if aerr != nil {
					b.verifyFailures.Add(1)
					yield(provstore.Record{}, aerr)
					return
				}
				root, anchored = pr.Root, true
			}
			if verr := pr.Verify(); verr != nil {
				b.verifyFailures.Add(1)
				yield(provstore.Record{}, fmt.Errorf("provrepl: shipping %d %s: %w", pr.Rec.Tid, pr.Rec.Loc, verr))
				return
			}
			b.verifiedRecs.Add(1)
			if !yield(pr.Rec, nil) {
				return
			}
		}
	}
}

// recoverHighWater computes the replica's high-water {Tid, Loc} mark from
// the replica itself: its largest transaction id, and the largest location
// within it (a ByTid scan streams in Loc order, so the last record carries
// it). This is what makes restart resume O(log n + the last transaction):
// Stat's MaxTid is one descent of the replica's index (mem:// keeps it
// sorted; rel:// reads the last primary key), the ByTid scan reads that one
// transaction, and the next applyPass seeks the primary to this key
// instead of re-reading (or re-shipping) the prefix the replica already
// holds.
func (b *ReplicatedBackend) recoverHighWater(r *replica) error {
	st, err := r.store.Stat(b.ctx)
	if err != nil {
		return err
	}
	r.hwTid, r.hwLoc = 0, path.Path{}
	if st.MaxTid > 0 {
		for rec, err := range r.store.Scan(b.ctx, provstore.ByTid(st.MaxTid)) {
			if err != nil {
				return err
			}
			r.hwTid, r.hwLoc = rec.Tid, rec.Loc
		}
	}
	r.appliedTid.Store(r.hwTid)
	r.hwValid = true
	return nil
}
