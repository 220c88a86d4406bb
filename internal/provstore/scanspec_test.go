package provstore

import (
	"math"
	"net/url"
	"testing"

	"repro/internal/path"
)

// TestScanSpecWire pins the wire and display forms of every kind, and that
// ParseScanSpec refuses anything but exactly the parameters a kind takes.
func TestScanSpecWire(t *testing.T) {
	loc := path.MustParse("T/c1")
	for _, c := range []struct {
		spec        ScanSpec
		wire, label string
	}{
		{All(), "kind=all", "scan-all"},
		{All().After(3, path.Root), "after_loc=&after_tid=3&kind=all", "scan-all-after(3, ε)"},
		{ByTid(3), "kind=tid&tid=3", "scan-tid(3)"},
		{ByLoc(loc), "kind=loc&loc=T%2Fc1", "scan-loc(T/c1)"},
		{ByPrefix(loc), "kind=loc-prefix&loc=T%2Fc1", "scan-loc-prefix(T/c1)"},
		{WithAncestors(loc).After(2, loc), "after_loc=T%2Fc1&after_tid=2&kind=loc-ancestors&loc=T%2Fc1", "scan-loc-ancestors(T/c1)-after(2, T/c1)"},
	} {
		if got := c.spec.Values().Encode(); got != c.wire {
			t.Errorf("%v: wire form %q, want %q", c.spec, got, c.wire)
		}
		if got := c.spec.String(); got != c.label {
			t.Errorf("label %q, want %q", got, c.label)
		}
	}
	// A point read's floor is its transaction; a subtree's order bounds
	// no Tid from below.
	for _, c := range []struct {
		spec  ScanSpec
		floor int64
	}{
		{ByLoc(loc).After(4, loc).Until(5), 5},
		{ByLoc(loc).After(4, path.MustParse("T")), math.MinInt64},
		{WithAncestors(loc).After(5, path.Root).Until(5), 5},
		{ByTid(3), 3},
		{All(), math.MinInt64},
		{ByPrefix(loc).After(4, loc), math.MinInt64},
	} {
		if got := c.spec.Floor(); got != c.floor {
			t.Errorf("%v: floor %d, want %d", c.spec, got, c.floor)
		}
	}
	for _, bad := range []string{
		"",                                 // no kind
		"kind=everything",                  // unknown kind
		"kind=tid",                         // missing argument
		"kind=loc",                         // missing argument
		"kind=tid&tid=three",               // bad tid
		"kind=loc&loc=T//x",                // bad path
		"kind=all&tid=3",                   // an argument the kind does not take
		"kind=tid&tid=3&loc=T",             // likewise
		"kind=all&limit=5",                 // not a spec parameter
		"kind=all&after_tid=1",             // half a resume key
		"kind=all&after_loc=T",             // the other half
		"kind=all&after_tid=x&after_loc=T", // bad resume tid
		"kind=tid&tid=1&tid=2",             // a parameter given twice
		"kind=all&kind=all",                // likewise
	} {
		q, err := url.ParseQuery(bad)
		if err != nil {
			t.Fatal(err)
		}
		if s, err := ParseScanSpec(q); err == nil {
			t.Errorf("ParseScanSpec(%q) accepted %v", bad, s)
		}
	}
}
