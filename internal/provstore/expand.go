package provstore

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/path"
	"repro/internal/tree"
)

// This file implements the recursive view of §2.1.3 defining the full Prov
// relation in terms of the hierarchical HProv relation:
//
//	Infer(t, p)          ← ¬(∃x,q. HProv(t, x, p, q))
//	Prov(t, op, p, q)    ← HProv(t, op, p, q).
//	Prov(t, C, p/a, q/a) ← Prov(t, C, p, q), Infer(t, p).
//	Prov(t, I, p/a, ⊥)   ← Prov(t, I, p, ⊥), Infer(t, p).
//	Prov(t, D, p/a, ⊥)   ← Prov(t, D, p, ⊥), Infer(t, p).
//
// The expansion is state-relative: inferred insert/copy rows range over
// paths that exist in the version of the target produced by the transaction,
// and inferred delete rows over paths that existed in the version it
// consumed ("Prov is calculated from HProv as necessary for paths in T").

// ExpandTxn computes the full Prov rows of one transaction from its stored
// (possibly hierarchical) records. pre and post are the target forest
// immediately before and after the transaction. For trackers with immediate
// per-operation transactions, pre and post bracket the single operation.
//
// Records of non-hierarchical trackers expand to themselves: every row is
// explicit, so the walks stop immediately at explicit descendants.
func ExpandTxn(recs []Record, pre, post *tree.Forest) ([]Record, error) {
	explicit := make(map[path.Path]Record, len(recs))
	for _, r := range recs {
		explicit[r.Loc] = r
	}
	var out []Record
	for _, r := range recs {
		out = append(out, r)
		var state *tree.Forest
		if r.Op == OpDelete {
			state = pre
		} else {
			state = post
		}
		node, err := state.Get(r.Loc)
		if err != nil {
			return nil, fmt.Errorf("provstore: expanding %v: %w", r, err)
		}
		// Walk the subtree, stopping descent at any node that carries its
		// own explicit record — that subtree belongs to the nearer record.
		var descend func(loc path.Path, n *tree.Node)
		descend = func(loc path.Path, n *tree.Node) {
			for _, l := range n.Labels() {
				child := loc.Child(l)
				if _, ok := explicit[child]; ok {
					continue
				}
				inf := Record{Tid: r.Tid, Op: r.Op, Loc: child}
				if r.Op == OpCopy {
					src, err := child.Rebase(r.Loc, r.Src)
					if err != nil {
						// Unreachable: child is under r.Loc by construction.
						panic(err)
					}
					inf.Src = src
				}
				out = append(out, inf)
				descend(child, n.Child(l))
			}
		}
		descend(r.Loc, node)
	}
	sortRecords(out)
	return out, nil
}

// sortRecords orders records by (Tid, Loc), the display order of Figure 5.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Tid != recs[j].Tid {
			return recs[i].Tid < recs[j].Tid
		}
		return recs[i].Loc.Compare(recs[j].Loc) < 0
	})
}

// Effective resolves the Prov row governing location loc in transaction tid,
// applying the hierarchical inference rule on the fly (as CPDB's query
// implementation does, §3.3): an explicit record wins; otherwise the nearest
// ancestor record of the same transaction determines the row — a copied
// ancestor means loc was copied from the correspondingly rebased source
// location, an inserted (deleted) ancestor means loc was inserted (deleted).
//
// ok == false means loc was untouched by transaction tid — the Unch(t, p)
// view of §2.2. It is two reads, the key and then its nearest ancestor, so
// two round trips: the price of the paper's getSrc probe.
//
// Effective is sound for all four storage methods when loc is reached by
// backward tracing from a location that exists at the end of transaction
// tid: for the non-hierarchical methods every touched node has an explicit
// row, so the inference never fires spuriously.
func Effective(ctx context.Context, b Backend, tid int64, loc path.Path) (Record, bool, error) {
	if r, ok, err := Lookup(ctx, b, tid, loc); err != nil || ok {
		return r, ok, err
	}
	anc, ok, err := NearestAncestor(ctx, b, tid, loc)
	if err != nil || !ok {
		return Record{}, false, err
	}
	switch anc.Op {
	case OpCopy:
		src, rerr := loc.Rebase(anc.Loc, anc.Src)
		if rerr != nil {
			return Record{}, false, rerr
		}
		return Record{Tid: tid, Op: OpCopy, Loc: loc, Src: src}, true, nil
	case OpInsert:
		return Record{Tid: tid, Op: OpInsert, Loc: loc}, true, nil
	case OpDelete:
		return Record{Tid: tid, Op: OpDelete, Loc: loc}, true, nil
	default:
		return Record{}, false, fmt.Errorf("provstore: corrupt record %v", anc)
	}
}
