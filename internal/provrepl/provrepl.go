// Package provrepl implements the replicated provenance store: a composite
// backend that writes synchronously to a primary and ships committed records
// asynchronously to any number of replicas, each driven by its own applier
// goroutine resuming from the replica's high-water {Tid, Loc} mark via the
// seekable All().After cursor.
//
// The paper's provenance relation (Figure 5) is append-only and immutable,
// keyed by {Tid, Loc} — which makes asynchronous log-shipping replication
// unusually easy to reason about: a replica is always a prefix of the
// primary's (Tid, Loc)-ordered All() stream, and catching up after a crash
// or a lag spike is one seeked cursor from the last key the replica holds.
// There is no log to maintain beyond the relation itself.
//
// Reads route by policy: readPrimary sends everything to the primary
// (replicas are pure standbys for failover and offline analytics);
// readAny fans reads out round-robin across replicas, falling back to the
// primary when no replica qualifies or a replica read fails mid-flight. A
// replica serves reads only while fully caught up with everything this
// handle has acknowledged, so fan-out reads are indistinguishable from
// primary reads: a curator who appends and then asks for provenance reads
// their own writes.
//
// Ordering contract: log-shipping by keyset resume assumes the primary's
// records become visible in (Tid, Loc) order — true for the session ingest
// path, where transaction ids are allocated and committed monotonically.
// Commits that arrive out of tid order *through this handle* (sessions with
// partitioned tid ranges sharing one backend) are detected at
// acknowledgement time and repaired: the appliers rewind to the
// out-of-order tid and re-ship from there, skipping records the replica
// already holds. What the handle cannot see it cannot repair: a writer
// committing an old tid directly to the primary outside this handle, or a
// crash between acknowledging an out-of-order commit and shipping it,
// leaves that tid stranded behind the replicas' high-water marks — route
// writers through the replicated handle, or rebuild the replica. See
// DESIGN.md §4.
package provrepl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provauth"
	"repro/internal/provobs"
	"repro/internal/provstore"
	"repro/internal/provtrace"
)

// readPolicy selects where a replicated backend serves reads from.
type readPolicy int

const (
	// readPrimary routes every read to the primary; replicas are pure
	// standbys. This is the default: replication adds durability and
	// failover without changing any observable behavior.
	readPrimary readPolicy = iota
	// readAny fans reads out round-robin across caught-up replicas,
	// failing over to the primary when none qualifies or a replica errors.
	readAny
)

// String returns the DSN spelling of the policy.
func (p readPolicy) String() string {
	if p == readAny {
		return "any"
	}
	return "primary"
}

// options configures a replicated backend.
type options struct {
	// Read selects the read routing policy (default readPrimary).
	Read readPolicy
	// Poll is how often an idle applier re-checks the primary for records
	// that arrived outside this handle (another client writing to the same
	// cpdbd primary, say), and the floor of the retry backoff after an
	// apply error. Default 500ms.
	Poll time.Duration
	// ApplyBatch caps how many records an applier ships to its replica in
	// one Append during catch-up. Chunks are cut only at transaction
	// boundaries, so a replica's content stays transaction-atomic whenever
	// the primary's appends are (a single oversized transaction ships as
	// one chunk). Default 512.
	ApplyBatch int
	// CloseTimeout bounds the final catch-up drain Close performs so
	// acknowledged records reach the replicas before the appliers stop. A
	// dead replica cannot wedge shutdown past this. Default 30s.
	CloseTimeout time.Duration
	// Verify makes the appliers ship over the primary's authenticated
	// stream: every record crossing to a replica carries a Merkle inclusion
	// proof, checked against the primary's signed-off root before the
	// replica sees it, and each pass's root is anchored — the first root is
	// trusted (for the handle's lifetime), every later one must extend it
	// over a verified consistency proof, so a primary that rewrites history
	// and regenerates its tree cannot re-prove the lie past the anchor.
	// Requires a primary that implements provauth.Authority (open it via
	// verified://). A proof or anchor failure fails the pass — the applier
	// goes unhealthy and retries — so a tampered primary blocks shipping
	// instead of propagating to replicas. Only sealed transactions appear
	// in the proven stream, so verified replicas trail the primary by any
	// still-open transaction until Flush.
	Verify bool
}

func (o options) withDefaults() options {
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.ApplyBatch <= 0 {
		o.ApplyBatch = 512
	}
	if o.CloseTimeout <= 0 {
		o.CloseTimeout = 30 * time.Second
	}
	return o
}

// A ReplicatedBackend is a provstore.Backend over one primary and N replica
// stores: writes go to the primary synchronously and are acknowledged once
// the primary has them; per-replica applier goroutines ship committed
// records to the replicas asynchronously; reads route by options.Read. It
// is safe for concurrent use.
//
// Lifecycle: Flush pushes the primary's buffered writes down and nudges the
// appliers; Close flushes, drains the appliers (bounded by CloseTimeout),
// stops them, and closes every store that holds external resources.
type ReplicatedBackend struct {
	primary  provstore.Backend
	replicas []*replica
	opts     options

	// shipped is the write version: it increments on every acknowledged
	// append through this handle and on every Flush. A replica whose synced
	// version has reached it holds everything acknowledged so far.
	shipped    atomic.Int64
	shippedTid atomic.Int64 // max acknowledged transaction id
	shipMu     sync.Mutex   // serializes noteShipped's read-then-update

	rr atomic.Uint64

	// anchor admits the primary root each verified pass ships under. It
	// stops a primary (in particular a remote cpdb:// one, whose roots
	// arrive as unauthenticated claims) from rewriting history between
	// passes and re-proving everything against the rewritten tree. Shared
	// by all appliers; used only under options.Verify. The appliers admit
	// one at a time (admitMu): all are woken by the same append, and
	// otherwise each would fetch the new root's consistency proof.
	anchor  *provauth.Anchor
	admitMu sync.Mutex

	obs            *provobs.Registry
	verifiedRecs   *provobs.Counter // records shipped with a verified proof (Verify mode only)
	verifyFailures *provobs.Counter // proof/root checks that failed during shipping (Verify mode only)
	applyDur       *provobs.Histogram

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
}

var (
	_ provstore.Backend = (*ReplicatedBackend)(nil)
	_ provstore.Flusher = (*ReplicatedBackend)(nil)
	_ provobs.Source    = (*ReplicatedBackend)(nil)
	_ io.Closer         = (*ReplicatedBackend)(nil)
)

// errClosed reports use of a closed replicated backend.
var errClosed = errors.New("provrepl: backend is closed")

// newReplicated builds a replicated backend over the given primary and
// replica stores and starts one applier goroutine per replica. Replica
// stores must be dedicated to this backend (the appliers assume nothing else
// writes them).
func newReplicated(primary provstore.Backend, replicas []provstore.Backend, opts options) (*ReplicatedBackend, error) {
	if primary == nil {
		return nil, errors.New("provrepl: New requires a primary")
	}
	if len(replicas) == 0 {
		return nil, errors.New("provrepl: New requires at least one replica")
	}
	for i, r := range replicas {
		if r == nil {
			return nil, fmt.Errorf("provrepl: New replica %d is nil", i)
		}
	}
	if opts.Verify {
		if _, ok := primary.(provauth.Authority); !ok {
			return nil, errors.New("provrepl: Options.Verify needs a primary that serves proofs; open it via verified://")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &ReplicatedBackend{
		primary: primary,
		opts:    opts.withDefaults(),
		anchor:  provauth.NewAnchor(""),
		obs:     provobs.NewRegistry(),
		ctx:     ctx,
		cancel:  cancel,
	}
	for i, store := range replicas {
		r := &replica{idx: i, store: store, wake: make(chan struct{}, 1)}
		r.synced.Store(-1) // behind until the first full drain
		b.replicas = append(b.replicas, r)
	}
	b.register()
	for _, r := range b.replicas {
		b.wg.Add(1)
		go b.applier(r)
	}
	return b, nil
}

// ObsRegistries implements provobs.Source: this layer's registry.
func (b *ReplicatedBackend) ObsRegistries() []*provobs.Registry { return []*provobs.Registry{b.obs} }

// Inner returns the primary, which answers for the store: its authority
// and its daemon are the primary's.
func (b *ReplicatedBackend) Inner() provstore.Backend { return b.primary }

// Below returns the primary and then the replicas (see provstore.Walk).
func (b *ReplicatedBackend) Below() []provstore.Backend {
	below := []provstore.Backend{b.primary}
	for _, r := range b.replicas {
		below = append(below, r.store)
	}
	return below
}

// --- writes ------------------------------------------------------------------

// Append implements Backend: the batch is appended to the primary
// synchronously and acknowledged as soon as the primary has it; shipping to
// replicas happens asynchronously.
func (b *ReplicatedBackend) Append(ctx context.Context, recs []provstore.Record) error {
	if b.closed.Load() {
		return errClosed
	}
	_, sp := provtrace.Start(ctx, "repl:append-primary")
	if sp != nil {
		sp.SetAttr("records", strconv.Itoa(len(recs)))
	}
	err := b.primary.Append(ctx, recs)
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return err
	}
	b.noteShipped(tidRangeOf(recs))
	return nil
}

func tidRangeOf(recs []provstore.Record) (minTid, maxTid int64) {
	for _, r := range recs {
		if minTid == 0 || r.Tid < minTid {
			minTid = r.Tid
		}
		if r.Tid > maxTid {
			maxTid = r.Tid
		}
	}
	return minTid, maxTid
}

// noteShipped records an acknowledged append and nudges the appliers. A
// batch whose smallest tid does not exceed the largest tid already
// acknowledged arrived out of tid order — the keyset appliers would skip
// past it — so every replica is told to rewind to that tid and re-ship
// from there (skipping what it already holds). The in-order fast path
// (every session) never takes the branch.
func (b *ReplicatedBackend) noteShipped(minTid, maxTid int64) {
	b.shipMu.Lock()
	prev := b.shippedTid.Load()
	if maxTid > prev {
		b.shippedTid.Store(maxTid)
	}
	if minTid > 0 && minTid <= prev {
		for _, r := range b.replicas {
			r.setRewind(minTid)
		}
	}
	b.shipped.Add(1)
	b.shipMu.Unlock()
	b.wakeAll()
}

func (b *ReplicatedBackend) wakeAll() {
	for _, r := range b.replicas {
		r.kick()
	}
}

// --- read routing ------------------------------------------------------------

// pickReplica chooses the next eligible replica under the read policy, or
// nil when reads belong on the primary. Eligibility: the applier is healthy
// and the replica holds everything acknowledged so far, so a read never
// observes a torn or stale prefix.
func (b *ReplicatedBackend) pickReplica() *replica {
	if b.opts.Read != readAny {
		return nil
	}
	shipped := b.shipped.Load()
	start := int(b.rr.Add(1))
	now := time.Now().UnixNano()
	for i := 0; i < len(b.replicas); i++ {
		r := b.replicas[(start+i)%len(b.replicas)]
		if !r.healthy.Load() || now < r.demotedUntil.Load() {
			continue
		}
		if r.synced.Load() >= shipped {
			return r
		}
	}
	return nil
}

// demote takes a replica out of the read rotation after a failed read and
// wakes its applier. A clean apply pass restores the healthy flag, but the
// rotation holds the replica out for a poll interval regardless — a store
// whose reads fail while its appends still succeed would otherwise flap in
// and out of rotation on every applier pass.
func (b *ReplicatedBackend) demote(r *replica) {
	r.healthy.Store(false)
	r.demotedUntil.Store(time.Now().Add(b.opts.Poll).UnixNano())
	r.kick()
}

// Scan implements Backend: the scan is served from an eligible replica with
// full failover. Every kind strictly ascends in its own order and resumes
// after a key, so a replica cursor failing mid-stream goes on on the primary
// from the last key already delivered (spec.After): the consumer sees one
// uninterrupted, duplicate-free ordered stream across the switch. Caller
// cancellation is returned, not failed over.
func (b *ReplicatedBackend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	r := b.pickReplica()
	if r == nil {
		return provtrace.Cursor(ctx, "repl:scan", b.primary.Scan(ctx, spec),
			provtrace.Attr{K: "source", V: "primary"})
	}
	return provtrace.Cursor(ctx, "repl:scan", func(yield func(provstore.Record, error) bool) {
		for rec, err := range r.store.Scan(ctx, spec) {
			if err != nil {
				if ctx.Err() != nil {
					yield(provstore.Record{}, err)
					return
				}
				b.demote(r)
				for rec2, err2 := range b.primary.Scan(ctx, spec) {
					if !yield(rec2, err2) || err2 != nil {
						return
					}
				}
				return
			}
			spec = spec.After(rec.Tid, rec.Loc)
			if !yield(rec, nil) {
				return
			}
		}
	}, provtrace.Attr{K: "source", V: "replica"})
}

// Stat implements Backend.
func (b *ReplicatedBackend) Stat(ctx context.Context) (provstore.Stat, error) {
	if r := b.pickReplica(); r != nil {
		st, err := r.store.Stat(ctx)
		if err == nil || ctx.Err() != nil {
			return st, err
		}
		b.demote(r)
	}
	return b.primary.Stat(ctx)
}

// --- lifecycle ---------------------------------------------------------------

// Flush implements Flusher: it pushes the primary's buffered writes down —
// a verified primary seals its open transaction, which only then ships — and
// counts as a shipment, so each applier passes once more. It does not wait
// for the replicas — shipping stays asynchronous; use WaitForReplicas for a
// barrier.
func (b *ReplicatedBackend) Flush(ctx context.Context) error {
	err := provstore.Flush(ctx, b.primary)
	b.shipped.Add(1)
	b.wakeAll()
	return err
}

// WaitForReplicas blocks until every replica has applied everything
// acknowledged or flushed before the call, or ctx expires. Each of those
// already woke the appliers, so the wait adds no pass of its own. A replica
// stuck on a persistent apply error holds the wait until the deadline.
func (b *ReplicatedBackend) WaitForReplicas(ctx context.Context) error {
	target := b.shipped.Load()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		done := true
		for _, r := range b.replicas {
			if r.synced.Load() < target {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close implements io.Closer: the primary's buffers flush, the appliers get
// a bounded final drain so acknowledged records reach the replicas, then
// they stop and every store holding external resources is closed. The first
// error wins, flush errors foremost (acknowledged records that could not be
// persisted matter more than a failed file release).
func (b *ReplicatedBackend) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := provstore.Flush(context.Background(), b.primary)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), b.opts.CloseTimeout)
	b.WaitForReplicas(drainCtx) //nolint:errcheck // best effort: a dead replica must not wedge shutdown
	cancelDrain()
	b.cancel()
	b.wg.Wait()
	for _, r := range b.replicas {
		if cerr := provstore.Close(r.store); err == nil {
			err = cerr
		}
	}
	if c, ok := b.primary.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// register names this layer's series: per-replica staleness and progress,
// surfaced through /v1/stats and /metrics when a replicated backend sits
// behind cpdbd.
//
//	repl.replicas          configured replica count
//	repl.shipped_tid       max transaction id acknowledged on the primary
//	repl.applied_tid.<i>   replica i's high-water transaction id
//	repl.lag.<i>           repl.shipped_tid - repl.applied_tid.<i>, floored at 0
//	repl.healthy.<i>       1 while replica i's applier is caught up and erroring-free
//
// With options.Verify on, two more track the authenticated stream:
//
//	repl.verified_recs     records shipped after their inclusion proof checked out
//	repl.verify_failures   proof or root-anchor checks that failed (shipping
//	                       stalls while non-zero)
func (b *ReplicatedBackend) register() {
	key := provobs.WithStatKey
	b.obs.GaugeFunc("cpdb_repl_replicas", "Configured replica count.",
		func() int64 { return int64(len(b.replicas)) }, key("repl.replicas"))
	b.obs.GaugeFunc("cpdb_repl_shipped_tid", "Max transaction id acknowledged on the primary.",
		b.shippedTid.Load, key("repl.shipped_tid"))
	if b.opts.Verify {
		b.verifiedRecs = b.obs.Counter("cpdb_repl_verified_records_total",
			"Records shipped after their inclusion proof checked out.", key("repl.verified_recs"))
		b.verifyFailures = b.obs.Counter("cpdb_repl_verify_failures_total",
			"Proof or root-anchor checks that failed during shipping.", key("repl.verify_failures"))
	}
	b.applyDur = b.obs.Histogram("cpdb_repl_apply_batch_duration_seconds",
		"Time to apply one shipped record batch on a replica.", provobs.UnitSeconds)
	for _, r := range b.replicas {
		i := strconv.Itoa(r.idx)
		replica := provobs.WithLabel("replica", i)
		b.obs.GaugeFunc("cpdb_repl_applied_tid", "A replica's high-water transaction id.",
			r.appliedTid.Load, replica, key("repl.applied_tid."+i))
		b.obs.GaugeFunc("cpdb_repl_lag_tids", "Transaction ids a replica trails the primary by.",
			func() int64 { return max(b.shippedTid.Load()-r.appliedTid.Load(), 0) },
			replica, key("repl.lag."+i))
		b.obs.GaugeFunc("cpdb_repl_replica_healthy", "1 while a replica's applier is caught up and erroring-free.",
			func() int64 {
				if r.healthy.Load() {
					return 1
				}
				return 0
			}, replica, key("repl.healthy."+i))
	}
}
