package provstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"strconv"
	"sync"

	"repro/internal/path"
	"repro/internal/provtrace"
)

// This file implements the sharded, concurrent provenance store: records
// are partitioned across N independently locked shards by hash of their
// location, so ingest from many concurrent curators (the paper's fig. 2
// shows exactly one) can use more than one core, and queries fan out across
// the shards with a parallel scatter-gather and merge.
//
// Sharding is pure partitioning: for any fixed record set, a sharded store
// answers every Backend query with exactly the rows and ordering a single
// MemBackend would produce (cross-checked by the equivalence tests).

// ShardFor returns the shard index in [0, n) for a record location: the
// FNV-1a hash of the location's root-relative path (the path with the
// database label stripped), so routing does not depend on what the curated
// database happens to be called. All records at one location land on one
// shard, which is what lets a ByLoc scan — a Lookup — stay single-shard.
func ShardFor(loc path.Path, n int) int {
	if n <= 1 {
		return 0
	}
	// FNV-1a over labels 1..len-1 (label 0 names the database), each
	// terminated by 0 so ["ab","c"] and ["a","bc"] hash differently.
	h := uint32(2166136261)
	for i, l := range loc.All() {
		if i == 0 {
			continue
		}
		for j := 0; j < len(l); j++ {
			h = (h ^ uint32(l[j])) * 16777619
		}
		h *= 16777619 // the terminator: h ^ 0 is h
	}
	return int(h % uint32(n))
}

// Fanout runs f(0), …, f(n-1) concurrently — an errgroup-style helper — and
// returns the combined error of all calls (nil if all succeed). For n == 1
// it calls f inline. When ctx is already cancelled nothing is launched and
// ctx.Err() is returned; once launched, every call runs to completion (each
// f is expected to observe ctx itself), so Fanout never leaks a goroutine.
func Fanout(ctx context.Context, n int, f func(int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// A ShardedBackend partitions provenance records across several underlying
// backends by ShardFor of each record's location. Writes touching different
// shards proceed in parallel (each shard has its own locking); reads that
// cannot be routed to a single shard scatter across all shards concurrently
// and merge the results into the documented Backend ordering.
//
// Cancellation: every scatter checks its context before launching a wave,
// and each per-shard call re-checks it, so a cancelled query returns
// ctx.Err() within one wave without leaking goroutines.
//
// Atomicity of Append is per shard: the whole batch is validated up front
// (so the single-writer paths used by sessions never observe a partial
// batch), but two writers racing on the same {Tid, Loc} key may leave a
// cross-shard batch partially applied — the same contract a distributed
// store offers without two-phase commit.
type ShardedBackend struct {
	shards []Backend
}

var _ Backend = (*ShardedBackend)(nil)

// NewSharded builds a sharded backend over the given shard stores. At least
// one shard is required.
func NewSharded(shards ...Backend) (*ShardedBackend, error) {
	if len(shards) == 0 {
		return nil, errors.New("provstore: NewSharded requires at least one shard")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("provstore: NewSharded shard %d is nil", i)
		}
	}
	return &ShardedBackend{shards: shards}, nil
}

// NewShardedMem returns a sharded backend over n fresh in-memory shards.
// n < 1 is treated as 1.
func NewShardedMem(n int) *ShardedBackend {
	if n < 1 {
		n = 1
	}
	shards := make([]Backend, n)
	for i := range shards {
		shards[i] = NewMemBackend()
	}
	sb, _ := NewSharded(shards...)
	return sb
}

// Below returns the shards, in shard order (see Walk). The layer counts
// nothing itself, so a sharded store reports what its shards do.
func (b *ShardedBackend) Below() []Backend { return b.shards }

// shardFor routes one location.
func (b *ShardedBackend) shardFor(loc path.Path) Backend {
	return b.shards[ShardFor(loc, len(b.shards))]
}

// partition splits a batch into per-shard sub-batches, preserving the
// relative order of records within each shard.
func (b *ShardedBackend) partition(recs []Record) [][]Record {
	parts := make([][]Record, len(b.shards))
	for _, r := range recs {
		i := ShardFor(r.Loc, len(b.shards))
		parts[i] = append(parts[i], r)
	}
	return parts
}

// Append implements Backend: the batch is validated wholesale — structural
// checks and intra-batch duplicates inline, then per-shard store probes in
// parallel — so the common single-writer case stores nothing on failure
// (matching MemBackend). Only then do the per-shard sub-batches append, in
// parallel, each shard's share as one Append — one commit per shard touched.
func (b *ShardedBackend) Append(ctx context.Context, recs []Record) error {
	if len(b.shards) == 1 {
		return b.shards[0].Append(ctx, recs)
	}
	if err := ValidateBatch(recs); err != nil {
		return err
	}
	parts := b.partition(recs)
	err := b.fanParts(ctx, parts, func(i int) error { return checkStored(ctx, b.shards[i], parts[i]) })
	if err != nil {
		return err
	}
	return b.fanParts(ctx, parts, func(i int) error {
		_, sp := provtrace.Start(ctx, "shard:append")
		if sp != nil {
			sp.SetAttr("shard", strconv.Itoa(i))
			sp.SetAttr("records", strconv.Itoa(len(parts[i])))
		}
		aerr := b.shards[i].Append(ctx, parts[i])
		sp.SetErr(aerr)
		sp.End()
		return aerr
	})
}

// fanParts runs f for every shard with a non-empty part, inline when only
// one shard is touched (the common case for small batches) and in parallel
// otherwise.
func (b *ShardedBackend) fanParts(ctx context.Context, parts [][]Record, f func(int) error) error {
	touched := make([]int, 0, len(parts))
	for i, p := range parts {
		if len(p) > 0 {
			touched = append(touched, i)
		}
	}
	if len(touched) == 0 {
		return nil
	}
	if len(touched) == 1 {
		return f(touched[0])
	}
	return Fanout(ctx, len(touched), func(j int) error { return f(touched[j]) })
}

// Scan implements Backend. All records at one location live on one shard, so
// a ByLoc scan is a single-shard read and a WithAncestors scan gathers one
// such read per prefix of its location (ScanAncestors). Every other kind can
// match on any shard: one cursor per shard, each pulled lazily one record at
// a time, and a streaming k-way merge restores the global order — no shard's
// result is ever gathered wholesale, so such a scan stays O(shards) in
// memory. Construction is lazy; nothing runs until the cursor is ranged.
// Under tracing, each shard's cursor drains inside its own "shard:<scan>"
// span (the scatter half of the scatter-gather), ended from the merge's
// puller goroutines — all into one shared recorder.
func (b *ShardedBackend) Scan(ctx context.Context, spec ScanSpec) iter.Seq2[Record, error] {
	switch {
	case len(b.shards) == 1:
		return b.shards[0].Scan(ctx, spec)
	case spec.Kind == KindLoc:
		return b.shardFor(spec.Loc).Scan(ctx, spec)
	case spec.Kind == KindAncestors:
		return ScanAncestors(ctx, spec, func(p ScanSpec, buf []Record) ([]Record, error) {
			return appendScan(buf, b.shardFor(p.Loc).Scan(ctx, p))
		}, Itself)
	}
	var span string
	if provtrace.Active(ctx) {
		span = "shard:" + spec.String()
	}
	cursors := make([]iter.Seq2[Record, error], len(b.shards))
	for i, s := range b.shards {
		cursors[i] = s.Scan(ctx, spec)
		if span != "" {
			cursors[i] = provtrace.Cursor(ctx, span, cursors[i],
				provtrace.Attr{K: "shard", V: strconv.Itoa(i)})
		}
	}
	return MergeScans(spec.Order(), cursors...)
}

// Stat implements Backend: the shards' counts and sizes summed, the largest
// of their transaction identifiers.
func (b *ShardedBackend) Stat(ctx context.Context) (Stat, error) {
	stats := make([]Stat, len(b.shards))
	err := Fanout(ctx, len(b.shards), func(i int) (serr error) {
		stats[i], serr = b.shards[i].Stat(ctx)
		return serr
	})
	var total Stat
	for _, st := range stats {
		total.MaxTid = max(total.MaxTid, st.MaxTid)
		total.Count += st.Count
		total.Bytes += st.Bytes
	}
	return total, err
}

// Flush implements Flusher by flushing every shard that supports it —
// remote shards propagate the caller's trace.
func (b *ShardedBackend) Flush(ctx context.Context) error {
	return Fanout(ctx, len(b.shards), func(i int) error {
		return Flush(ctx, b.shards[i])
	})
}

// Close closes every shard store that holds external resources (WAL-backed
// relational shards, for instance), combining their errors. Shards that are
// not io.Closers are skipped.
func (b *ShardedBackend) Close() error {
	return Fanout(context.Background(), len(b.shards), func(i int) error {
		if c, ok := b.shards[i].(io.Closer); ok {
			return c.Close()
		}
		return nil
	})
}
