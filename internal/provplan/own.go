package provplan

import (
	"context"
	"fmt"

	"repro/internal/path"
	"repro/internal/provstore"
)

// A Federation joins the provenance stores of several databases, enabling
// the cross-database queries of §2.2: "if source databases also store
// provenance, we can provide more complete answers by combining the
// provenance information of all of the databases."
type Federation struct {
	stores map[string]provstore.Backend
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{stores: make(map[string]provstore.Backend)}
}

// Register attaches a database's provenance store under its name.
func (f *Federation) Register(db string, b provstore.Backend) {
	f.stores[db] = b
}

// Store returns the provenance store of a database, or nil.
func (f *Federation) Store(db string) provstore.Backend { return f.stores[db] }

// An OwnershipStep is one database in the ownership history of a piece of
// data: the data lived at Loc in database DB, entering it at transaction
// Tid (0 when it pre-existed the recorded history).
type OwnershipStep struct {
	DB     string
	Loc    path.Path
	Events []Event
	Origin Origin
}

// Own answers the paper's cross-database query: "What is the history of
// 'ownership' of a piece of data? That is, what sequence of databases
// contained the previous copies of a node?" The chain starts at p in its
// database and follows copies across every federated store; it ends at an
// insertion, at the edge of recorded history, or at a database with no
// registered provenance store (a partial answer).
func (f *Federation) Own(ctx context.Context, p path.Path) ([]OwnershipStep, error) {
	var steps []OwnershipStep
	cur := p
	const maxHops = 64 // defensive bound against cyclic provenance
	for hop := 0; hop < maxHops; hop++ {
		b, ok := f.stores[cur.DB()]
		if !ok {
			// No provenance store for this database: the history is
			// partial from here on.
			steps = append(steps, OwnershipStep{DB: cur.DB(), Loc: cur, Origin: OriginExternal})
			return steps, nil
		}
		// One trace as of the store's newest transaction, resolved where the
		// plan executes: one round trip per hop on a remote store.
		res, err := Collect(ctx, b, &Query{Op: OpTrace, Path: cur.String()})
		if err != nil {
			return nil, err
		}
		tr := res.Trace
		steps = append(steps, OwnershipStep{DB: cur.DB(), Loc: cur, Events: tr.Events, Origin: tr.Origin})
		if tr.Origin != OriginExternal {
			return steps, nil
		}
		cur = tr.External
	}
	return nil, fmt.Errorf("provplan: ownership chain exceeds %d databases (cycle?)", maxHops)
}
