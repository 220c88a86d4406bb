package netsim

import (
	"context"
	"iter"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/wrapper"
)

// ChargedSource wraps a wrapper.Source so every call pays a simulated round
// trip priced by the subtree size it ships.
type ChargedSource struct {
	inner wrapper.Source
	conn  *Conn
}

var _ wrapper.Source = (*ChargedSource)(nil)

// ChargeSource wraps src, billing conn.
func ChargeSource(src wrapper.Source, conn *Conn) *ChargedSource {
	return &ChargedSource{inner: src, conn: conn}
}

// Name implements wrapper.Source.
func (w *ChargedSource) Name() string { return w.inner.Name() }

// Tree implements wrapper.Source.
func (w *ChargedSource) Tree() (*tree.Node, error) {
	t, err := w.inner.Tree()
	if err != nil {
		return nil, err
	}
	if err := w.conn.Call(t.Size(), t.EncodedSize()); err != nil {
		return nil, err
	}
	return t, nil
}

// CopyNode implements wrapper.Source.
func (w *ChargedSource) CopyNode(p path.Path) (*tree.Node, error) {
	n, err := w.inner.CopyNode(p)
	if err != nil {
		return nil, err
	}
	if err := w.conn.Call(n.Size(), n.EncodedSize()); err != nil {
		return nil, err
	}
	return n, nil
}

// Has implements wrapper.Source.
func (w *ChargedSource) Has(p path.Path) bool {
	if err := w.conn.Call(1, 0); err != nil {
		return false
	}
	return w.inner.Has(p)
}

// ChargedTarget wraps a wrapper.Target, billing each read and update round
// trip. Its costs are the "Dataset Update" bar of the paper's Figure 9.
type ChargedTarget struct {
	ChargedSource
	inner wrapper.Target
}

var _ wrapper.Target = (*ChargedTarget)(nil)

// ChargeTarget wraps tgt, billing conn.
func ChargeTarget(tgt wrapper.Target, conn *Conn) *ChargedTarget {
	return &ChargedTarget{ChargedSource: ChargedSource{inner: tgt, conn: conn}, inner: tgt}
}

// AddNode implements wrapper.Target.
func (w *ChargedTarget) AddNode(parent path.Path, name string, value *tree.Node) error {
	if err := w.conn.Call(1, 16+len(name)); err != nil {
		return err
	}
	return w.inner.AddNode(parent, name, value)
}

// DeleteNode implements wrapper.Target.
func (w *ChargedTarget) DeleteNode(p path.Path) error {
	if err := w.conn.Call(1, 16); err != nil {
		return err
	}
	return w.inner.DeleteNode(p)
}

// PasteNode implements wrapper.Target: the round trip ships the subtree.
func (w *ChargedTarget) PasteNode(p path.Path, n *tree.Node) error {
	if err := w.conn.Call(n.Size(), n.EncodedSize()); err != nil {
		return err
	}
	return w.inner.PasteNode(p, n)
}

// ChargedBackend wraps a provstore.Backend, charging write round trips to
// one connection and read round trips to another (an INSERT through JDBC
// costs more than a point SELECT). A cancelled context aborts before the
// round trip is even charged — the caller hung up before dialing.
type ChargedBackend struct {
	inner       provstore.Backend
	write, read *Conn
}

var _ provstore.Backend = (*ChargedBackend)(nil)

// ChargeBackend wraps inner, billing writes to write and reads to read.
func ChargeBackend(inner provstore.Backend, write, read *Conn) *ChargedBackend {
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
