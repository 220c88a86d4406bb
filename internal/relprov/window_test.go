package relprov

import (
	"context"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
)

// windowStore returns a store of 2 000 records: 100 transactions of 20, each
// under T/e<tid>, every other one a copy.
func windowStore(t *testing.T) *Backend {
	t.Helper()
	b, err := OpenFile(filepath.Join(t.TempDir(), "prov.rel"), Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for tid := int64(1); tid <= 100; tid++ {
		recs := make([]provstore.Record, 0, 20)
		for i := 0; i < 20; i++ {
			r := provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.New("T", "e"+strconv.FormatInt(tid, 10), "n"+strconv.Itoa(i))}
			if i%2 == 1 {
				r.Op, r.Src = provstore.OpCopy, path.New("S", "x", "n"+strconv.Itoa(i))
			}
			recs = append(recs, r)
		}
		if err := b.Append(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestRelWindowSlabs: a visit decodes its window eight rows at a time, the
// paths of each eight substrings of one string, so what it allocates is one
// object per eight rows whatever the paths hold — 2, 8 and 32 for windows of
// 16, 64 and 256 rows — in either tree, from the start of a stretch or
// resumed inside it. The budget is exactly that: one more object per eight
// rows (a label slab, or a copy of a row) fails it.
func TestRelWindowSlabs(t *testing.T) {
	b := windowStore(t)
	resume := path.New("T", "e1", "n0")
	for _, spec := range []provstore.ScanSpec{
		provstore.All(),
		provstore.All().After(1, resume),
		provstore.ByPrefix(path.New("T")),
		provstore.ByPrefix(path.New("T")).After(1, resume),
	} {
		for _, want := range []int{16, 64, 256} {
			buf := make([]provstore.Record, 0, want)
			allocs := testing.AllocsPerRun(20, func() {
				window, _, more, err := b.visit(spec, buf[:0], want)
				if err != nil || len(window) != want || !more {
					t.Fatalf("%v: visit of %d returned %d records, more=%v, %v", spec, want, len(window), more, err)
				}
			})
			if budget := want / slabRows; allocs > float64(budget) {
				t.Errorf("%v: a visit of %d rows allocates %.1f objects, want at most %d", spec, want, allocs, budget)
			}
		}
	}
}
