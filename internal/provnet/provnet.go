// Package provnet connects the provenance store to the simulated network:
// it wraps a provstore.Backend so that every backend method — one logical
// round trip to the provenance database, per the paper's architecture —
// charges a netsim connection. Writes and reads can be priced separately
// (an INSERT round trip through JDBC costs more than a point SELECT).
package provnet

import (
	"context"
	"iter"

	"repro/internal/provstore"
)

// A Caller is the slice of netsim.Conn this package needs; it is satisfied
// by *netsim.Conn.
type Caller interface {
	Call(records, bytes int) error
}

// ChargedBackend wraps a backend, charging write round trips to Write and
// read round trips to Read. A failed (fault-injected) round trip aborts the
// operation before it reaches the wrapped backend, as a dropped network
// call would. A cancelled context aborts before the round trip is even
// charged — the caller hung up before dialing.
type ChargedBackend struct {
	inner provstore.Backend
	write Caller
	read  Caller
}

var _ provstore.Backend = (*ChargedBackend)(nil)

// New wraps inner with the given write and read connections.
func New(inner provstore.Backend, write, read Caller) *ChargedBackend {
	return &ChargedBackend{inner: inner, write: write, read: read}
}

// Inner returns the wrapped backend.
func (b *ChargedBackend) Inner() provstore.Backend { return b.inner }

func recordsBytes(recs []provstore.Record) int {
	n := 0
	for _, r := range recs {
		n += r.EncodedSize()
	}
	return n
}

// Append implements provstore.Backend: one write round trip carrying the
// whole batch.
func (b *ChargedBackend) Append(ctx context.Context, recs []provstore.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.write.Call(len(recs), recordsBytes(recs)); err != nil {
		return err
	}
	return b.inner.Append(ctx, recs)
}

// Scan implements provstore.Backend: one read round trip shipping the result
// set back. The inner cursor is drained first — the simulated wire ships the
// whole result set in one reply, and its cost depends on how many records
// that is — then the round trip is charged and the records replayed to the
// consumer. Materializing here is deliberate: this wrapper exists to account
// simulated network cost, not to bound memory, and pricing must match the
// paper's per-reply model.
func (b *ChargedBackend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	return func(yield func(provstore.Record, error) bool) {
		recs, err := provstore.CollectScan(b.inner.Scan(ctx, spec))
		if err != nil {
			yield(provstore.Record{}, err)
			return
		}
		if err := b.read.Call(len(recs), recordsBytes(recs)); err != nil {
			yield(provstore.Record{}, err)
			return
		}
		for _, r := range recs {
			if !yield(r, nil) {
				return
			}
		}
	}
}

// Stat implements provstore.Backend: one read round trip.
func (b *ChargedBackend) Stat(ctx context.Context) (provstore.Stat, error) {
	if err := ctx.Err(); err != nil {
		return provstore.Stat{}, err
	}
	if err := b.read.Call(1, 8); err != nil {
		return provstore.Stat{}, err
	}
	return b.inner.Stat(ctx)
}
