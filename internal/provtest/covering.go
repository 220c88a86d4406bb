package provtest

import (
	"testing"

	"repro/internal/relstore"
)

// CheckCovering walks both trees of the provenance table and requires that
// they hold the same rows one to one: every primary entry (tid, loc) → v has
// exactly one by_loc entry (loc, tid) → v, with v byte for byte the same, and
// by_loc holds nothing else. Reads by location trust by_loc alone, so this
// is the invariant no read checks.
func CheckCovering(t *testing.T, tbl *relstore.Table) {
	t.Helper()
	type key struct {
		tid int64
		loc string
	}
	primary := map[key]string{}
	if err := tbl.ScanEncodedFrom(nil, nil, func(pk, val []byte) bool {
		tid, rest, err := relstore.DecodeKeyInt(pk)
		var loc []byte
		if err == nil {
			loc, rest, err = relstore.DecodeKeyPath(rest)
		}
		if err != nil || len(rest) > 0 {
			t.Fatalf("primary key %x: %v, %d trailing bytes", pk, err, len(rest))
		}
		primary[key{tid, string(loc)}] = string(val)
		return true
	}); err != nil {
		t.Fatalf("primary walk: %v", err)
	}
	n := 0
	if err := tbl.ScanIndexEncodedFrom("by_loc", nil, nil, func(ik, val []byte) bool {
		loc, rest, err := relstore.DecodeKeyPath(ik)
		var tid int64
		if err == nil {
			tid, rest, err = relstore.DecodeKeyInt(rest)
		}
		if err != nil || len(rest) > 0 {
			t.Fatalf("by_loc key %x: %v, %d trailing bytes", ik, err, len(rest))
		}
		k := key{tid, string(loc)}
		if v, ok := primary[k]; !ok {
			t.Errorf("by_loc entry (%q, %d) has no primary row", k.loc, k.tid)
		} else if v != string(val) {
			t.Errorf("by_loc entry (%q, %d) holds %x, its primary row %x", k.loc, k.tid, val, v)
		}
		n++
		return true
	}); err != nil {
		t.Fatalf("by_loc walk: %v", err)
	}
	if n != len(primary) {
		t.Errorf("by_loc holds %d entries for %d primary rows", n, len(primary))
	}
}
