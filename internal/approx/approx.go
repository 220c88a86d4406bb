// Package approx implements the approximate provenance extension sketched
// in the paper's future work (§6): bulk updates — e.g. restructuring
// thousands of citations with one XQuery-style statement — would generate
// provenance proportional to the data touched. Instead, a single
// approximate record
//
//	Prov(t, C, T/a/*/b, S/a/*/b)
//
// over-approximates the full set of links with XPath-style patterns, at the
// price of certainty: queries answer "may have come from" and "cannot have
// come from" instead of "came from".
package approx

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/update"
)

// A Record is an approximate provenance record: within transaction Tid,
// locations matching Loc may have received data from the correspondingly
// rebased locations matching Src (for copies), or may have been inserted or
// deleted.
type Record struct {
	Tid int64
	Op  provstore.OpKind
	Loc path.Pattern
	Src path.Pattern // for copies; must have the same length as Loc
}

// String renders the record in the paper's notation.
func (r Record) String() string {
	src := "⊥"
	if r.Op == provstore.OpCopy {
		src = r.Src.String()
	}
	return fmt.Sprintf("%d %s %s %s", r.Tid, r.Op, r.Loc, src)
}

// Validate checks structural invariants.
func (r Record) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("approx: invalid op %v", r.Op)
	}
	if r.Loc.Len() == 0 {
		return errors.New("approx: record needs a location pattern")
	}
	if r.Op == provstore.OpCopy && r.Src.Len() == 0 {
		return errors.New("approx: copy record needs a source pattern")
	}
	return nil
}

// bindAndRebase matches srcPat against a prefix of p, binds srcPat's
// wildcards to the concrete labels of p, substitutes the bindings into
// dstPat's wildcards positionally (leftover destination wildcards stay
// wild), and appends p's unmatched suffix. This generalizes Pattern.Rebase
// to patterns of different lengths, as bulk updates need.
func bindAndRebase(srcPat path.Pattern, p path.Path, dstPat path.Pattern) (path.Pattern, bool) {
	if !srcPat.MatchesPrefixOf(p) {
		return path.Pattern{}, false
	}
	labels := p.Labels()
	var binds []string
	for i, c := range splitPattern(srcPat) {
		if c == path.Wildcard {
			binds = append(binds, labels[i])
		}
	}
	out := make([]string, 0, dstPat.Len()+len(labels)-srcPat.Len())
	k := 0
	for _, c := range splitPattern(dstPat) {
		if c == path.Wildcard && k < len(binds) {
			out = append(out, binds[k])
			k++
			continue
		}
		out = append(out, c)
	}
	out = append(out, labels[srcPat.Len():]...)
	pat, err := path.ParsePattern(joinComponents(out))
	if err != nil {
		return path.Pattern{}, false
	}
	return pat, true
}

func joinComponents(comps []string) string {
	s := ""
	for i, c := range comps {
		if i > 0 {
			s += "/"
		}
		s += c
	}
	return s
}

// A Store holds approximate records, in memory (the storage cost is
// proportional to the number of bulk statements, which is negligible; §6).
type Store struct {
	mu   sync.RWMutex
	recs []Record
}

// NewStore returns an empty approximate store.
func NewStore() *Store { return &Store{} }

// Append adds records.
func (s *Store) Append(recs ...Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
	return nil
}

// Count returns the number of stored approximate records.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// All returns a copy of the stored records.
func (s *Store) All() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// MayComeFrom returns the source locations (as patterns) the data at loc
// may have come from in transaction tid: every copy record whose
// destination pattern prefix-matches loc contributes its rebased source.
// An empty answer with ok=true means loc was certainly not copied in tid.
func (s *Store) MayComeFrom(tid int64, loc path.Path) []path.Pattern {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []path.Pattern
	for _, r := range s.recs {
		if r.Tid != tid || r.Op != provstore.OpCopy {
			continue
		}
		if src, ok := bindAndRebase(r.Loc, loc, r.Src); ok {
			out = append(out, src)
		}
	}
	return out
}

// CannotComeFrom reports whether the data at loc in transaction tid
// certainly did not come from the given source location: no approximate
// copy record's rebased source pattern can match it.
func (s *Store) CannotComeFrom(tid int64, loc, src path.Path) bool {
	for _, pat := range s.MayComeFrom(tid, loc) {
		if pat.MatchesPrefixOf(src) || pat.Matches(src) {
			return false
		}
	}
	return true
}

// MayBeTouched reports whether transaction tid may have inserted, deleted,
// or copied data at or under loc — the approximate analogue of ¬Unch.
func (s *Store) MayBeTouched(tid int64, loc path.Path) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.recs {
		if r.Tid != tid {
			continue
		}
		// The record touches loc's subtree if its pattern can match a
		// path at loc, under loc, or at an ancestor of loc.
		if r.Loc.MatchesPrefixOf(loc) {
			return true
		}
		if patternUnder(r.Loc, loc) {
			return true
		}
	}
	return false
}

// patternUnder reports whether some path matched by pat lies at or under
// prefix: the pattern's first len(prefix) components must be able to match
// the prefix.
func patternUnder(pat path.Pattern, prefix path.Path) bool {
	if pat.Len() < prefix.Len() {
		return false
	}
	comps := splitPattern(pat)
	for i, l := range prefix.All() {
		if comps[i] != path.Wildcard && comps[i] != l {
			return false
		}
	}
	return true
}

func splitPattern(pat path.Pattern) []string {
	if pat.Len() == 0 {
		return nil
	}
	out := make([]string, 0, pat.Len())
	cur := ""
	s := pat.String()
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(s[i])
	}
	return append(out, cur)
}

// ApproxMod returns the transactions that may have modified the subtree at
// p — a superset of the exact Mod answer.
func (s *Store) ApproxMod(p path.Path, tids []int64) []int64 {
	var out []int64
	for _, t := range tids {
		if s.MayBeTouched(t, p) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- bulk updates -----------------------------------------------------------

// BulkCopy is a bulk update statement: for every node matched by the Src
// pattern in the source database, copy it to the correspondingly rebased
// destination. It is the copy-paste analogue of an XQuery/SQL bulk
// statement (§6).
type BulkCopy struct {
	Src path.Pattern
	Dst path.Pattern
}

// Expand enumerates the concrete copy operations a BulkCopy performs
// against the given forest.
func (b BulkCopy) Expand(f *tree.Forest) ([]update.Copy, error) {
	if b.Src.Len() == 0 || b.Dst.Len() == 0 {
		return nil, errors.New("approx: bulk copy patterns must be non-empty")
	}
	comps := splitPattern(b.Src)
	if comps[0] == path.Wildcard {
		return nil, errors.New("approx: database component must be concrete")
	}
	root := f.DB(comps[0])
	if root == nil {
		return nil, fmt.Errorf("approx: unknown database %q", comps[0])
	}
	var out []update.Copy
	var walk func(n *tree.Node, at path.Path, depth int) error
	walk = func(n *tree.Node, at path.Path, depth int) error {
		if depth == len(comps) {
			dst, ok := bindAndRebase(b.Src, at, b.Dst)
			if !ok {
				return fmt.Errorf("approx: cannot rebase %q", at)
			}
			dstPath, ok := dst.AsPath()
			if !ok {
				return fmt.Errorf("approx: destination %q still has wildcards", dst)
			}
			out = append(out, update.Copy{Src: at, Dst: dstPath})
			return nil
		}
		want := comps[depth]
		for _, l := range n.Labels() {
			if want != path.Wildcard && want != l {
				continue
			}
			if err := walk(n.Child(l), at.Child(l), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, path.New(comps[0]), 1); err != nil {
		return nil, err
	}
	return out, nil
}

// Record returns the single approximate record describing the bulk copy
// under transaction tid — constant-size provenance for an arbitrarily large
// statement.
func (b BulkCopy) Record(tid int64) Record {
	return Record{Tid: tid, Op: provstore.OpCopy, Loc: b.Dst, Src: b.Src}
}
