package relprov

import "repro/internal/path"

// HasPrimary reports whether b's primary tree holds the key (tid, loc): one
// descent to the key's leaf, then that leaf again, comparing keys only — a
// point probe of the tree whose page count is its height plus one.
func HasPrimary(b *Backend, tid int64, loc path.Path) (bool, error) {
	var key [256]byte
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.tbl.Has(primaryKey(key[:0], tid, loc))
}
