package provstore

import (
	"sort"

	"repro/internal/path"
)

// provlist is the active list of §3.2.2: the buffered provenance links of
// the currently open transaction in the deferred (T, HT) methods. It keeps
// at most one entry per location — matching the {Tid, Loc} key of the Prov
// relation — and supports the pruning the paper describes: "in the case of a
// copy or delete, any provenance links on the list corresponding to
// overwritten or deleted data are removed".
//
// An insert or copy entry may *shadow* net deletions of pre-existing data it
// replaced (delete-then-recreate, or copy-over within one transaction). The
// shadowed locations are restored as delete links if the recreated data is
// itself deleted before commit, so the transaction's records always describe
// its net change.
type provlist struct {
	entries map[path.Path]*listEntry
}

type listEntry struct {
	loc path.Path
	op  OpKind
	src path.Path // for copies
	// shadow lists locations of pre-existing nodes whose net deletion
	// this created entry hides. Invariant: when non-empty, it contains
	// loc itself and is exactly the transaction-start subtree this
	// entry's region replaced.
	shadow []path.Path
}

func newProvlist() *provlist {
	return &provlist{entries: make(map[path.Path]*listEntry)}
}

func (l *provlist) len() int { return len(l.entries) }

// at returns the entry exactly at loc, or nil.
func (l *provlist) at(loc path.Path) *listEntry { return l.entries[loc] }

// nearest returns the entry at the longest prefix of loc that has one — loc
// itself counting unless strict — or nil. This is the in-memory analogue of
// NearestAncestor and implements the hierarchical inference rule
// against the active list. An ancestor of loc is a prefix of its encoding,
// so the probes allocate nothing.
func (l *provlist) nearest(loc path.Path, strict bool) *listEntry {
	if strict {
		loc, _ = loc.Parent()
	}
	for ; !loc.IsRoot(); loc = loc.MustParent() {
		if e := l.entries[loc]; e != nil {
			return e
		}
	}
	return nil
}

// nearestAncestorOrSelf returns the entry at loc or at its longest prefix
// that has one, or nil.
func (l *provlist) nearestAncestorOrSelf(loc path.Path) *listEntry { return l.nearest(loc, false) }

// nearestStrictAncestor is nearestAncestorOrSelf excluding loc itself.
func (l *provlist) nearestStrictAncestor(loc path.Path) *listEntry { return l.nearest(loc, true) }

// createdAt reports whether the node at loc was created (inserted or copied)
// during the current transaction, using the hierarchical inference rule:
// the nearest ancestor-or-self entry, if any, is an insert or copy.
func (l *provlist) createdAt(loc path.Path) bool {
	e := l.nearestAncestorOrSelf(loc)
	return e != nil && (e.op == OpInsert || e.op == OpCopy)
}

// set inserts or replaces the entry at loc.
func (l *provlist) set(e *listEntry) {
	l.entries[e.loc] = e
}

// setDelete adds a delete link at loc unless the location already carries an
// entry (an earlier delete link for the same pre-existing data).
func (l *provlist) setDelete(loc path.Path) {
	if l.at(loc) == nil {
		l.set(&listEntry{loc: loc, op: OpDelete})
	}
}

// removeCreatedRegion removes all insert/copy entries at or under root,
// returning the removed entries. Delete entries in the region are kept: they
// describe earlier net deletions of pre-existing data, which remain true.
func (l *provlist) removeCreatedRegion(root path.Path) []*listEntry {
	var removed []*listEntry
	for k, e := range l.entries {
		if (e.op == OpInsert || e.op == OpCopy) && root.IsPrefixOf(e.loc) {
			removed = append(removed, e)
			delete(l.entries, k)
		}
	}
	return removed
}

// removeRegion removes every entry at or under root (used by copy, which
// wholesale replaces the destination region), returning the removed entries.
func (l *provlist) removeRegion(root path.Path) []*listEntry {
	var removed []*listEntry
	for k, e := range l.entries {
		if root.IsPrefixOf(e.loc) {
			removed = append(removed, e)
			delete(l.entries, k)
		}
	}
	return removed
}

// flush returns the buffered entries as records under the given transaction
// id, sorted by location, and clears the list.
func (l *provlist) flush(tid int64) []Record {
	recs := make([]Record, 0, len(l.entries))
	for _, e := range l.entries {
		r := Record{Tid: tid, Op: e.op, Loc: e.loc}
		if e.op == OpCopy {
			r.Src = e.src
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Loc.Compare(recs[j].Loc) < 0 })
	l.entries = make(map[path.Path]*listEntry)
	return recs
}

// eliminateRedundant drops entries that the hierarchical inference rule
// makes inferable from another buffered entry (§3.2.4): a copy whose nearest
// ancestor copy already implies it with a consistent source, an insert under
// an inserted ancestor, and a delete under a deleted ancestor. The paper
// notes such redundancy "is unusual, so this extra processing appears not to
// be worthwhile in most cases"; it is exercised by the A4 ablation.
func (l *provlist) eliminateRedundant() int {
	var drop []path.Path
	for k, e := range l.entries {
		anc := l.nearestStrictAncestor(e.loc)
		if anc == nil {
			continue
		}
		switch {
		case e.op == OpInsert && anc.op == OpInsert && len(e.shadow) == 0:
			drop = append(drop, k)
		case e.op == OpDelete && anc.op == OpDelete:
			drop = append(drop, k)
		case e.op == OpCopy && anc.op == OpCopy && len(e.shadow) == 0:
			if want, err := e.loc.Rebase(anc.loc, anc.src); err == nil && want.Equal(e.src) {
				drop = append(drop, k)
			}
		}
	}
	for _, k := range drop {
		delete(l.entries, k)
	}
	return len(drop)
}
