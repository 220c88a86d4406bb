package provtest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
)

// This file is the backend conformance suite: one set of cursor-contract
// checks every Backend implementation runs instead of each package keeping
// its own copy-pasted variants. A backend passes when every scan kind
// streams the documented membership in the documented order, After is
// exactly a keyset seek into every kind's own order, breaking out of a cursor
// releases its resources (proven by the store remaining fully usable), and
// cancellation surfaces as the in-stream terminal error — before the first
// record for a pre-cancelled context, between records otherwise.
//
// Packages run it against their own store shape:
//
//	func TestConformance(t *testing.T) {
//		provtest.Conformance(t, func(t *testing.T) provstore.Backend {
//			return openMyBackend(t)
//		})
//	}

// conformanceFixture is the record set the suite loads: three databases,
// nested locations (so prefix and ancestor scans have real work), all three
// op kinds, several records per transaction, and one transaction gap.
func conformanceFixture() []provstore.Record {
	rec := func(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
		r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
		if src != "" {
			r.Src = path.MustParse(src)
		}
		return r
	}
	return []provstore.Record{
		rec(1, provstore.OpInsert, "S/a", ""),
		rec(1, provstore.OpInsert, "S/a/x", ""),
		rec(1, provstore.OpInsert, "S/a/x/deep", ""),
		rec(1, provstore.OpInsert, "S/b", ""),
		rec(2, provstore.OpCopy, "T/c1", "S/a"),
		rec(2, provstore.OpCopy, "T/c1/x", "S/a/x"),
		rec(2, provstore.OpInsert, "T/c2", ""),
		rec(3, provstore.OpCopy, "T/c2/y", "T/c1/x"),
		rec(3, provstore.OpDelete, "S/b", ""),
		rec(3, provstore.OpInsert, "T/c1/z", ""),
		rec(4, provstore.OpCopy, "U/m", "T/c2"),
		rec(4, provstore.OpCopy, "U/m/y", "T/c2/y"),
		rec(4, provstore.OpInsert, "T/c1/x", ""),
		rec(6, provstore.OpDelete, "T/c1/z", ""),
		rec(6, provstore.OpCopy, "T/c3", "U/m"),
		rec(6, provstore.OpInsert, "T/c3/w", ""),
	}
}

// Conformance runs the cursor-contract conformance suite. open must return
// a fresh, empty backend each call (each subtest loads its own fixture);
// cleanup belongs to open via t.Cleanup.
func Conformance(t *testing.T, open func(t *testing.T) provstore.Backend) {
	t.Run("ScanOrdering", func(t *testing.T) { conformScanOrdering(t, open(t)) })
	t.Run("SeekEquivalence", func(t *testing.T) { conformSeek(t, open(t)) })
	t.Run("Until", func(t *testing.T) { conformUntil(t, open(t)) })
	t.Run("EarlyBreakReleases", func(t *testing.T) { conformEarlyBreak(t, open(t)) })
	t.Run("CancelMidStream", func(t *testing.T) { conformCancelMidStream(t, open(t)) })
	t.Run("PreCancelledContext", func(t *testing.T) { conformPreCancelled(t, open(t)) })
	t.Run("GroupAppend", func(t *testing.T) { conformGroupAppend(t, open(t)) })
}

func loadConformanceFixture(t *testing.T, b provstore.Backend) []provstore.Record {
	t.Helper()
	recs := conformanceFixture()
	if err := b.Append(context.Background(), recs); err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return recs
}

// sameSeq fails unless got and want hold the same records in the same
// order (keys, ops and sources all compared).
func sameSeq(t *testing.T, what string, got, want []provstore.Record) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s:\n got  %v\nwant %v", what, got, want)
	}
}

// A scanCase is one row of the conformance table: a spec and, stated apart
// from it, what it selects and in what order. keep and cmp are the oracle —
// they never call spec.Match or spec.Order, which they are the check on.
type scanCase struct {
	spec provstore.ScanSpec
	keep func(provstore.Record) bool
	cmp  func(a, b provstore.Record) int
}

// scanCases is the table: every kind, over arguments that select many
// records, one, and none (an absent tid, one past the end, an absent
// location, an absent subtree).
func scanCases() []scanCase {
	tidLoc := func(a, b provstore.Record) int {
		return cmp.Or(cmp.Compare(a.Tid, b.Tid), a.Loc.Compare(b.Loc))
	}
	locTid := func(a, b provstore.Record) int {
		return cmp.Or(a.Loc.Compare(b.Loc), cmp.Compare(a.Tid, b.Tid))
	}
	cases := []scanCase{{provstore.All(), func(provstore.Record) bool { return true }, tidLoc}}
	for _, tid := range []int64{1, 2, 3, 4, 5, 6, 99} {
		cases = append(cases, scanCase{provstore.ByTid(tid),
			func(r provstore.Record) bool { return r.Tid == tid }, tidLoc})
	}
	for _, loc := range []string{"T/c1/x", "S/b", "T/c1", "T/absent"} {
		p := path.MustParse(loc)
		cases = append(cases, scanCase{provstore.ByLoc(p),
			func(r provstore.Record) bool { return r.Loc.Equal(p) }, locTid})
	}
	for _, prefix := range []string{"T/c1", "S", "U/m", "T/c2/y", "X"} {
		p := path.MustParse(prefix)
		cases = append(cases, scanCase{provstore.ByPrefix(p),
			func(r provstore.Record) bool { return p.IsPrefixOf(r.Loc) }, locTid})
	}
	for _, loc := range []string{"T/c1/x", "S/a/x/deep", "T/c3/w", "U/m/y"} {
		p := path.MustParse(loc)
		cases = append(cases, scanCase{provstore.WithAncestors(p),
			func(r provstore.Record) bool { return r.Loc.IsPrefixOf(p) }, tidLoc})
	}
	return cases
}

// conformScanOrdering drains every row of the table and checks membership
// and order — strictly increasing, because {Tid, Loc} is a key — against the
// oracle, computed from the fixture slice.
func conformScanOrdering(t *testing.T, b provstore.Backend) {
	ctx := context.Background()
	recs := loadConformanceFixture(t, b)
	for _, c := range scanCases() {
		var want []provstore.Record
		for _, r := range recs {
			if c.keep(r) {
				want = append(want, r)
			}
		}
		slices.SortFunc(want, c.cmp)
		got, err := provstore.CollectScan(b.Scan(ctx, c.spec))
		if err != nil {
			t.Fatalf("%v: %v", c.spec, err)
		}
		sameSeq(t, c.spec.String(), got, want)
		for i := 1; i < len(got); i++ {
			if c.cmp(got[i-1], got[i]) >= 0 {
				t.Fatalf("%v not strictly increasing at %d: %v !< %v", c.spec, i, got[i-1], got[i])
			}
		}
	}

	// The scalar views agree with the drained relation.
	tids, err := provstore.Tids(ctx, b)
	if err != nil {
		t.Fatalf("Tids: %v", err)
	}
	if want := []int64{1, 2, 3, 4, 6}; fmt.Sprint(tids) != fmt.Sprint(want) {
		t.Errorf("Tids = %v, want %v", tids, want)
	}
	if st, err := b.Stat(ctx); err != nil || st.MaxTid != 6 || st.Count != len(recs) {
		t.Errorf("Stat = %+v, %v; want MaxTid 6, Count %d", st, err, len(recs))
	}
}

// conformSeek pins After as a pure keyset seek for every row of the table:
// at every stored key — inside the row's selection or not — and at synthetic
// keys (before the start, between stored keys, inside the transaction gap,
// past the end), Scan(spec.After(k)) is exactly the suffix of Scan(spec)
// strictly after k in the row's own order.
func conformSeek(t *testing.T, b provstore.Backend) {
	ctx := context.Background()
	keys := seekKeys(loadConformanceFixture(t, b))
	for _, c := range scanCases() {
		full, err := provstore.CollectScan(b.Scan(ctx, c.spec))
		if err != nil {
			t.Fatalf("%v: %v", c.spec, err)
		}
		for _, k := range keys {
			var want []provstore.Record
			for _, r := range full {
				if c.cmp(r, k) > 0 {
					want = append(want, r)
				}
			}
			spec := c.spec.After(k.Tid, k.Loc)
			got, err := provstore.CollectScan(b.Scan(ctx, spec))
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			sameSeq(t, spec.String(), got, want)
		}
	}
}

// seekKeys returns the resume keys the suite seeks to: every stored key and
// synthetic ones — before the start, between stored keys, inside the
// transaction gap, past the end.
func seekKeys(recs []provstore.Record) []provstore.Record {
	keys := slices.Clone(recs)
	for _, k := range []struct {
		tid int64
		loc string
	}{
		{0, ""},         // before every key in either order
		{1, ""},         // the tid-range seek key: everything with Tid >= 1
		{3, ""},         // everything with Tid >= 3 (root sorts below every stored loc)
		{2, "T/c1/q"},   // between stored keys of one transaction
		{3, "T/c1/x"},   // between the stored tids of one location
		{5, "anything"}, // inside the transaction gap
		{99, ""},        // past the last tid
		{99, "Z"},       // past the end in either order
	} {
		keys = append(keys, provstore.Record{Tid: k.tid, Loc: path.MustParse(k.loc)})
	}
	return keys
}

// conformUntil pins the bound: for every row of the table, from its start
// and resumed at every key seekKeys lists, Scan(spec.Until(t)) at a tid in
// the middle of the history and at one in its gap is exactly Scan(spec)
// without the records of later transactions.
func conformUntil(t *testing.T, b provstore.Backend) {
	ctx := context.Background()
	keys := seekKeys(loadConformanceFixture(t, b))
	for _, c := range scanCases() {
		specs := []provstore.ScanSpec{c.spec}
		for _, k := range keys {
			specs = append(specs, c.spec.After(k.Tid, k.Loc))
		}
		for _, spec := range specs {
			full, err := provstore.CollectScan(b.Scan(ctx, spec))
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			for _, until := range []int64{3, 5} {
				var want []provstore.Record
				for _, r := range full {
					if r.Tid <= until {
						want = append(want, r)
					}
				}
				bounded := spec.Until(until)
				got, err := provstore.CollectScan(b.Scan(ctx, bounded))
				if err != nil {
					t.Fatalf("%v: %v", bounded, err)
				}
				sameSeq(t, bounded.String(), got, want)
			}
		}
	}
}

// probeSpecs is one scan of every kind, and a resumed one, each selecting at
// least one fixture record.
func probeSpecs() []provstore.ScanSpec {
	return []provstore.ScanSpec{
		provstore.All(),
		provstore.All().After(2, path.Root),
		provstore.ByTid(2),
		provstore.ByLoc(path.MustParse("T/c1/x")),
		provstore.ByPrefix(path.MustParse("T/c1")),
		provstore.WithAncestors(path.MustParse("T/c1/x")),
	}
}

// conformEarlyBreak breaks out of every scan kind after one record and then
// proves the store is fully usable — a write proceeds (no lock is still
// held) and a full drain still works (no cursor state leaked into the
// store).
func conformEarlyBreak(t *testing.T, b provstore.Backend) {
	ctx := context.Background()
	loadConformanceFixture(t, b)
	for _, spec := range probeSpecs() {
		n := 0
		for _, err := range b.Scan(ctx, spec) {
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			n++
			break
		}
		if n != 1 {
			t.Fatalf("%v yielded %d records before break, want 1", spec, n)
		}
	}
	// No broken cursor may still hold a lock or poison the store.
	if err := b.Append(ctx, []provstore.Record{{Tid: 9, Op: provstore.OpInsert, Loc: path.MustParse("T/after-break")}}); err != nil {
		t.Fatalf("append after broken cursors: %v", err)
	}
	got, err := provstore.CollectScan(b.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatalf("full drain after broken cursors: %v", err)
	}
	if len(got) != len(conformanceFixture())+1 {
		t.Fatalf("drain after broken cursors yielded %d records, want %d", len(got), len(conformanceFixture())+1)
	}
}

// conformCancelMidStream cancels the context between yields. The contract:
// iteration terminates promptly, and a stream that does not run to its
// natural end must surface the cancellation as its in-stream terminal
// error — never a silent truncation. (A remote cursor whose remaining
// bytes were already in flight may legitimately complete instead.)
func conformCancelMidStream(t *testing.T, b provstore.Backend) {
	recs := loadConformanceFixture(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	var terminal error
	for _, err := range b.Scan(ctx, provstore.All()) {
		if err != nil {
			terminal = err
			break
		}
		n++
		if n == 3 {
			cancel()
		}
	}
	switch {
	case terminal != nil:
		if !errors.Is(terminal, context.Canceled) {
			t.Fatalf("cancel mid-stream yielded %v, want context.Canceled", terminal)
		}
	case n < len(recs):
		t.Fatalf("stream ended silently after %d of %d records with no error", n, len(recs))
	}
}

// conformPreCancelled runs every scan kind (and the scalar reads) under an
// already-cancelled context: exactly one yielded pair carrying the
// cancellation, zero records.
func conformPreCancelled(t *testing.T, b provstore.Backend) {
	loadConformanceFixture(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range probeSpecs() {
		recs, err := provstore.CollectScan(b.Scan(ctx, spec))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v on cancelled ctx = %v, want context.Canceled", spec, err)
		}
		if len(recs) != 0 {
			t.Errorf("%v on cancelled ctx yielded %d records", spec, len(recs))
		}
	}
	if _, err := b.Stat(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Stat on cancelled ctx = %v, want context.Canceled", err)
	}
	if r, ok, err := provstore.Lookup(ctx, b, 1, path.MustParse("S/a")); !errors.Is(err, context.Canceled) || ok {
		t.Errorf("Lookup on cancelled ctx = %v, %v, %v; want context.Canceled", r, ok, err)
	}
	if r, ok, err := provstore.NearestAncestor(ctx, b, 1, path.MustParse("S/a/x/deep")); !errors.Is(err, context.Canceled) || ok {
		t.Errorf("NearestAncestor on cancelled ctx = %v, %v, %v; want context.Canceled", r, ok, err)
	}
}

// conformGroupAppend pins the write contract: one Append may span
// transactions and is stored whole, and a batch with a {Tid, Loc} repeated
// within it — in its last record, after two clean transactions — or already
// stored is rejected with *DupKeyError before any of it is stored.
func conformGroupAppend(t *testing.T, b provstore.Backend) {
	ctx := context.Background()
	group := func(base int64) []provstore.Record {
		var recs []provstore.Record
		for tid := base; tid < base+3; tid++ {
			for _, loc := range []string{"T/g", "T/g/a", "T/h"} {
				recs = append(recs, provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.MustParse(loc)})
			}
		}
		return recs
	}
	stored := group(1)
	if err := b.Append(ctx, stored); err != nil {
		t.Fatalf("three-transaction batch: %v", err)
	}
	got, err := provstore.CollectScan(b.Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	sameSeq(t, "three-transaction batch", got, stored)

	repeated := group(4)
	repeated = append(repeated, repeated[0])
	overlapping := append(group(4), stored[len(stored)-1])
	for what, recs := range map[string][]provstore.Record{"repeated in batch": repeated, "already stored": overlapping} {
		var dup *provstore.DupKeyError
		if err := b.Append(ctx, recs); !errors.As(err, &dup) {
			t.Errorf("%s: Append = %v, want *DupKeyError", what, err)
		}
		if st, err := b.Stat(ctx); err != nil || st.Count != len(stored) {
			t.Errorf("%s: Stat = %+v, %v; want Count %d (a rejected batch stores nothing)", what, st, err, len(stored))
		}
	}
}
