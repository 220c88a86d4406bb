package provtest

import (
	"context"
	"iter"
	"sync/atomic"

	"repro/internal/path"
	"repro/internal/provstore"
)

// A TamperBackend simulates storage-level corruption: writes pass through
// untouched, and while armed, every record leaving the store on a read
// path goes through Mutate first. Sandwiching it under an authenticated
// wrapper — provauth over Tamper over mem — gives tests a store whose
// Merkle tree was built over honest data but whose reads lie, which is
// exactly the scenario inclusion proofs must catch.
type TamperBackend struct {
	inner  provstore.Backend
	armed  atomic.Bool
	Mutate func(provstore.Record) provstore.Record
}

var _ provstore.Backend = (*TamperBackend)(nil)

// NewTamper wraps inner. mutate alters records on read while the backend
// is armed; nil defaults to flipping the record's Op byte — a single-byte
// corruption that keeps the {Tid, Loc} key intact, so only a hash check
// can notice it.
func NewTamper(inner provstore.Backend, mutate func(provstore.Record) provstore.Record) *TamperBackend {
	if mutate == nil {
		mutate = func(r provstore.Record) provstore.Record {
			if r.Op == provstore.OpInsert {
				r.Op = provstore.OpDelete
			} else {
				r.Op = provstore.OpInsert
				r.Src = path.Path{}
			}
			return r
		}
	}
	return &TamperBackend{inner: inner, Mutate: mutate}
}

// Arm starts (or stops) corrupting reads.
func (t *TamperBackend) Arm(on bool) { t.armed.Store(on) }

func (t *TamperBackend) out(r provstore.Record) provstore.Record {
	if t.armed.Load() {
		return t.Mutate(r)
	}
	return r
}

func (t *TamperBackend) tampered(scan iter.Seq2[provstore.Record, error]) iter.Seq2[provstore.Record, error] {
	return func(yield func(provstore.Record, error) bool) {
		for rec, err := range scan {
			if err != nil {
				yield(provstore.Record{}, err)
				return
			}
			if !yield(t.out(rec), nil) {
				return
			}
		}
	}
}

// Append implements Backend (writes are honest).
func (t *TamperBackend) Append(ctx context.Context, recs []provstore.Record) error {
	return t.inner.Append(ctx, recs)
}

// Scan implements Backend.
func (t *TamperBackend) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	return t.tampered(t.inner.Scan(ctx, spec))
}

// Stat implements Backend.
func (t *TamperBackend) Stat(ctx context.Context) (provstore.Stat, error) { return t.inner.Stat(ctx) }
