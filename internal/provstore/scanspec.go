package provstore

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"

	"repro/internal/path"
)

// A ScanKind names one of the five range selections every provenance query
// is built from. The paper's relation Prov(Tid, Op, Loc, Src) is keyed on
// {Tid, Loc} and indexed on Loc; each kind is one stretch of one of those
// two orders.
type ScanKind uint8

const (
	KindAll       ScanKind = iota // the whole relation, in (Tid, Loc) order
	KindTid                       // the records of transaction Tid, in (Tid, Loc) order — that is, by Loc
	KindLoc                       // the records at exactly Loc, in (Loc, Tid) order — that is, by Tid
	KindPrefix                    // the records at or under Loc, in (Loc, Tid) order
	KindAncestors                 // the records at Loc or a strict prefix of it, in (Tid, Loc) order
)

// kindNames are the wire spellings of the kinds (the kind= parameter), and
// with "scan-" in front their display names.
var kindNames = [...]string{"all", "tid", "loc", "loc-prefix", "loc-ancestors"}

// String returns the wire spelling of the kind.
func (k ScanKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// A ScanSpec is one ordered scan as a value: which records (Kind and its
// argument), from where (the resume key) and up to which transaction (the
// bound). Every layer that used to restate a scan's predicate, order,
// horizon, label or wire form derives it from the spec instead: Match,
// Order, String and Values.
type ScanSpec struct {
	Kind ScanKind
	Tid  int64     // the transaction of KindTid
	Loc  path.Path // the location of KindLoc, KindPrefix and KindAncestors

	// With after set, only the records strictly after (afterTid, afterLoc)
	// in Order are selected.
	after    bool
	afterTid int64
	afterLoc path.Path

	// With bounded set, only the records of transactions up to until are.
	bounded bool
	until   int64
}

// All selects the whole relation in (Tid, Loc) order — the paper's Figure 5
// table as one cursor.
func All() ScanSpec { return ScanSpec{} }

// ByTid selects the records of one transaction, ordered by Loc.
func ByTid(tid int64) ScanSpec { return ScanSpec{Kind: KindTid, Tid: tid} }

// ByLoc selects the records (of any transaction) at exactly loc, ordered by
// Tid.
func ByLoc(loc path.Path) ScanSpec { return ScanSpec{Kind: KindLoc, Loc: loc} }

// ByPrefix selects the records at or under prefix in (Loc, Tid) order — the
// Mod query's subtree read.
func ByPrefix(prefix path.Path) ScanSpec { return ScanSpec{Kind: KindPrefix, Loc: prefix} }

// WithAncestors selects the records at loc or at a strict prefix of it in
// (Tid, Loc) order: everything needed to resolve the effective provenance of
// loc in every transaction, hierarchical inference included, in one round
// trip.
func WithAncestors(loc path.Path) ScanSpec { return ScanSpec{Kind: KindAncestors, Loc: loc} }

// After returns s resuming strictly after the key (tid, loc) in s.Order() —
// the keyset cursor of every kind: a truncated stream, a replica applier or
// a failed-over read goes on from the last key it saw. Stores seek to the
// key (a B-tree descent, a binary search), so resuming costs O(log n), not
// O(records skipped). The key need not be stored, nor lie inside the
// selection.
func (s ScanSpec) After(tid int64, loc path.Path) ScanSpec {
	s.after, s.afterTid, s.afterLoc = true, tid, loc
	return s
}

// ResumeKey returns the key After set, and whether one is set.
func (s ScanSpec) ResumeKey() (Record, bool) {
	return Record{Tid: s.afterTid, Loc: s.afterLoc}, s.after
}

// Until returns s selecting only the records of transactions up to and
// including t — the horizon of "as of t": an ancestry query's, a pinned
// client's, a page's. Stores stop at it: in every order but a subtree's,
// the first record past t ends the scan, so the records written since are
// never read; a subtree's (Loc, Tid) order passes over them location by
// location.
func (s ScanSpec) Until(t int64) ScanSpec {
	s.bounded, s.until = true, t
	return s
}

// Bound returns the transaction Until set, and whether one is set.
func (s ScanSpec) Bound() (int64, bool) { return s.until, s.bounded }

// Beyond reports whether a record of transaction tid lies past the bound.
func (s ScanSpec) Beyond(tid int64) bool { return s.bounded && tid > s.until }

// Floor returns a transaction no record the scan selects is older than: the
// resume key's, or the transaction after it at one location, in the orders
// where the key bounds Tid from below; MinInt64 in a subtree's. A point
// read — ByLoc(l).After(t−1, l), or a WithAncestors scan after (t, ε) —
// has floor t.
func (s ScanSpec) Floor() int64 {
	from, strict := s.start()
	switch {
	case s.Kind == KindPrefix:
		return math.MinInt64
	case s.Kind == KindLoc && strict && from.Tid < math.MaxInt64:
		return from.Tid + 1
	}
	return from.Tid
}

// ends reports whether a walk of the scan's stretch that reached r, in
// Order, is over: r lies outside the kind's stretch, or past the bound in
// an order where every later record does too — all but a subtree's.
func (s ScanSpec) ends(r Record) bool {
	return !s.within(r) || s.Beyond(r.Tid) && s.Kind != KindPrefix
}

// Order returns the comparison the scan's records strictly ascend under:
// CompareTidLoc or CompareLocTid.
func (s ScanSpec) Order() func(a, b Record) int {
	if s.byLoc() {
		return CompareLocTid
	}
	return CompareTidLoc
}

// byLoc reports whether the scan is a stretch of the (Loc, Tid) order.
func (s ScanSpec) byLoc() bool { return s.Kind == KindLoc || s.Kind == KindPrefix }

// Match reports whether the scan selects r: the predicate a buffering layer
// filters its pending records with, and the re-check a verifying client
// applies to every record a server claims belongs to the answer.
func (s ScanSpec) Match(r Record) bool {
	if !s.within(r) || s.Beyond(r.Tid) {
		return false
	}
	after, ok := s.ResumeKey()
	return !ok || s.Order()(r, after) > 0
}

// within reports whether the kind selects r, resume key and bound aside.
func (s ScanSpec) within(r Record) bool {
	switch s.Kind {
	case KindTid:
		return r.Tid == s.Tid
	case KindLoc:
		return r.Loc.Equal(s.Loc)
	case KindPrefix:
		return s.Loc.IsPrefixOf(r.Loc)
	case KindAncestors:
		return r.Loc.IsPrefixOf(s.Loc)
	}
	return true
}

// start returns the key the selection begins at in Order — no record is at
// the forest root, and none has a smaller Tid than MinInt64 — and whether it
// begins strictly after that key.
func (s ScanSpec) start() (Record, bool) {
	from := Record{Tid: math.MinInt64}
	switch s.Kind {
	case KindTid:
		from.Tid = s.Tid
	case KindLoc, KindPrefix:
		from.Loc = s.Loc
	}
	if after, ok := s.ResumeKey(); ok && s.Order()(after, from) >= 0 {
		return after, true
	}
	return from, false
}

// probe returns the n-th of the Loc.Len() ByLoc scans a WithAncestors scan
// splits into, the one at the first n labels of Loc: each location lives in
// one stretch of the Loc index (and on one shard), and the merge of the
// probes in (Tid, Loc) order is the scan's answer. A probe resumes where s
// does, and stops at its bound.
func (s ScanSpec) probe(n int) ScanSpec {
	p := ByLoc(s.Loc.Prefix(n))
	p.bounded, p.until = s.bounded, s.until
	// (t, p) is after (afterTid, afterLoc) for t > afterTid, and for
	// t = afterTid too when p sorts after afterLoc.
	switch {
	case !s.after:
	case p.Loc.Compare(s.afterLoc) <= 0:
		p = p.After(s.afterTid, p.Loc)
	case s.afterTid > math.MinInt64:
		p = p.After(s.afterTid-1, p.Loc)
	}
	return p
}

// String labels the scan for spans, EXPLAIN and logs: "scan-all",
// "scan-tid(3)", "scan-loc-prefix(T/c1)", with a resume key
// "scan-all-after(3, ε)" and with a bound "scan-loc(T/a)-until(5)".
func (s ScanSpec) String() string {
	var out string
	switch s.Kind {
	case KindAll:
		out = "scan-all"
	case KindTid:
		out = "scan-tid(" + itoa(s.Tid) + ")"
	default:
		out = "scan-" + s.Kind.String() + "(" + s.Loc.String() + ")"
	}
	if s.after {
		loc := "ε"
		if !s.afterLoc.IsRoot() {
			loc = s.afterLoc.String()
		}
		out += "-after(" + itoa(s.afterTid) + ", " + loc + ")"
	}
	if s.bounded {
		out += "-until(" + itoa(s.until) + ")"
	}
	return out
}

// Values returns the wire form of the scan, the query parameters of
// GET /v1/scan: kind, then tid or loc as the kind takes one, then after_tid
// and after_loc together when there is a resume key, then until when there
// is a bound.
func (s ScanSpec) Values() url.Values {
	q := url.Values{"kind": {s.Kind.String()}}
	switch s.Kind {
	case KindAll:
	case KindTid:
		q.Set("tid", itoa(s.Tid))
	default:
		q.Set("loc", s.Loc.String())
	}
	if s.after {
		q.Set("after_tid", itoa(s.afterTid))
		q.Set("after_loc", s.afterLoc.String())
	}
	if s.bounded {
		q.Set("until", itoa(s.until))
	}
	return q
}

// ParseScanSpec is the inverse of Values. The parameters come from outside
// the program, so anything but exactly the parameters the kind takes, each
// given once and well-formed, is an error — never a scan wider than the one
// asked for.
func ParseScanSpec(q url.Values) (ScanSpec, error) {
	var s ScanSpec
	kind := slices.Index(kindNames[:], q.Get("kind"))
	if kind < 0 {
		return s, fmt.Errorf("provstore: unknown scan kind %q", q.Get("kind"))
	}
	s.Kind = ScanKind(kind)
	var err error
	switch s.Kind {
	case KindAll:
	case KindTid:
		if s.Tid, err = strconv.ParseInt(q.Get("tid"), 10, 64); err != nil {
			return s, fmt.Errorf("provstore: bad tid parameter %q", q.Get("tid"))
		}
	default:
		if s.Loc, err = pathParam(q, "loc"); err != nil {
			return s, err
		}
	}
	if q.Has("after_tid") || q.Has("after_loc") {
		s.after = true
		if s.afterTid, err = strconv.ParseInt(q.Get("after_tid"), 10, 64); err != nil {
			return s, fmt.Errorf("provstore: bad after_tid parameter %q", q.Get("after_tid"))
		}
		if s.afterLoc, err = pathParam(q, "after_loc"); err != nil {
			return s, err
		}
	}
	if q.Has("until") {
		s.bounded = true
		if s.until, err = strconv.ParseInt(q.Get("until"), 10, 64); err != nil {
			return s, fmt.Errorf("provstore: bad until parameter %q", q.Get("until"))
		}
	}
	want := s.Values()
	for name, vals := range q {
		if !want.Has(name) {
			return s, fmt.Errorf("provstore: a %v scan takes no %s parameter", s, name)
		}
		if len(vals) != 1 {
			return s, fmt.Errorf("provstore: parameter %s given %d times", name, len(vals))
		}
	}
	return s, nil
}

// pathParam parses a required path parameter ("" is the forest root).
func pathParam(q url.Values, name string) (path.Path, error) {
	if !q.Has(name) {
		return path.Root, fmt.Errorf("provstore: missing %s parameter", name)
	}
	p, err := path.Parse(q.Get(name))
	if err != nil {
		return path.Root, fmt.Errorf("provstore: bad %s parameter: %w", name, err)
	}
	return p, nil
}

// Tids returns the distinct transaction identifiers in b in ascending order
// by a skip-scan: one seek per transaction to the first key of the next.
func Tids(ctx context.Context, b Backend) ([]int64, error) {
	out := []int64{}
	for spec := All(); ; spec = All().After(out[len(out)-1]+1, path.Root) {
		n := len(out)
		for r, err := range b.Scan(ctx, spec) {
			if err != nil {
				return nil, err
			}
			out = append(out, r.Tid)
			break
		}
		if len(out) == n || out[n] == math.MaxInt64 {
			return out, nil
		}
	}
}

// Lookup returns the record with exactly the key (tid, loc), if b holds one:
// the one record ByLoc(loc) selects from just before tid until tid — a
// single scan, so a single round trip on any store, over any decorator.
func Lookup(ctx context.Context, b Backend, tid int64, loc path.Path) (Record, bool, error) {
	spec := ByLoc(loc).Until(tid)
	if tid > math.MinInt64 {
		spec = spec.After(tid-1, loc)
	}
	for r, err := range b.Scan(ctx, spec) {
		return r, err == nil, err
	}
	return Record{}, false, nil
}

// NearestAncestor returns the record of transaction tid whose Loc is the
// longest strict prefix of loc, if any: the last record the WithAncestors
// scan of loc's parent selects after (tid, ε) until tid — one ByLoc probe
// per strict prefix, each bounded to the one transaction. This single round
// trip is what the hierarchical tracker issues before storing an insert
// record (paper §4.2: hierarchical inserts are slower because "we must
// first query the provenance database").
func NearestAncestor(ctx context.Context, b Backend, tid int64, loc path.Path) (Record, bool, error) {
	parent := path.Root
	if loc.Len() > 1 {
		parent = loc.Prefix(loc.Len() - 1)
	}
	var last Record
	found := false
	for r, err := range b.Scan(ctx, WithAncestors(parent).After(tid, path.Root).Until(tid)) {
		if err != nil {
			return Record{}, false, err
		}
		last, found = r, true
	}
	return last, found, nil
}
