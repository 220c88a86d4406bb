package relstore

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateLeafLayout = flag.Bool("update-leaf-layout", false, "rewrite testdata/leaf_layout_golden.txt")

// layoutRow is the i-th row of the leaf-layout history: commit c of five
// rows takes tid c+1 on the even commits and 100000+c on the odd ones, so
// both trees take inserts in the middle as well as at their right edge;
// locs are random T/kNN/rNNNN/fN, a third of the rows copies, and every 40th
// loc carries a label of a few hundred bytes, so runs are cut around a long
// entry too.
func layoutRow(rng *rand.Rand, i int) Row {
	c := int64(i / 5)
	tid := c + 1
	if c%2 == 1 {
		tid = 100000 + c
	}
	loc := fmt.Sprintf("T/k%02d/r%04d/f%d", rng.Intn(40), rng.Intn(10000), i%5)
	if i%40 == 39 {
		loc += "/" + strings.Repeat("x", 100+rng.Intn(300))
	}
	op, src := "I", []byte{}
	if rng.Intn(3) == 0 {
		op, src = "C", []byte(fmt.Sprintf("S/k%02d/r%04d", rng.Intn(40), rng.Intn(10000)))
	}
	return Row{tid, []byte(loc), op, src}
}

// short renders a layout loc, its long label as x*N.
func short(loc Value) string {
	s := string(loc.([]byte))
	if i := strings.Index(s, "/xx"); i >= 0 {
		return fmt.Sprintf("%s/x*%d", s[:i], len(s)-i-1)
	}
	return s
}

// writeLeaves writes one line per leaf of tr, left to right: its number of
// runs, then each run's entries as name renders them, runs separated by
// " | ".
func writeLeaves(t *testing.T, out *bytes.Buffer, name string, tr *btree, entry func(key, val []byte) string) {
	t.Helper()
	id, err := tr.descend(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; id != invalidPage; n++ {
		pg, err := tr.bp.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "%s leaf %d: %d runs:", name, n, pg.NumSlots())
		for s := 0; s < pg.NumSlots(); s++ {
			cell, err := pg.Cell(s)
			if err != nil {
				t.Fatal(err)
			}
			if s > 0 {
				out.WriteString(" |")
			}
			var r runReader
			r.reset(cell)
			for {
				more, err := r.next()
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
				out.WriteString(" " + entry(r.key, r.val))
			}
		}
		out.WriteByte('\n')
		next := pg.Next()
		tr.bp.unpin(id, false)
		id = next
	}
}

// TestLeafLayoutGolden pins which entries every leaf of both trees holds,
// run by run, after a seeded history of 3000 rows inserted with
// provSchema() in 5-row commits: testdata/leaf_layout_golden.txt. Where a
// cell lies within its page, and the dead bytes an insert leaves, are not
// part of it; a change to the insert path that keeps the split decisions
// keeps this file byte for byte (-update-leaf-layout rewrites it).
func TestLeafLayoutGolden(t *testing.T) {
	db := testDB(t)
	tbl, err := db.CreateTable(provSchema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		if err := tbl.Insert(layoutRow(rng, i)); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if i%5 == 4 {
			if err := db.GroupCommit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	val := func(v []byte) string {
		cols, err := decodeRow(tbl.valType, v)
		if err != nil {
			t.Fatal(err)
		}
		if cols[0] == "C" {
			return fmt.Sprintf("C<%s", cols[1])
		}
		return fmt.Sprint(cols[0])
	}
	var out bytes.Buffer
	writeLeaves(t, &out, "primary", tbl.primary, func(key, v []byte) string {
		f, err := decodeKey(tbl.keyType, key)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d:%s=%s", f[0], short(f[1]), val(v))
	})
	writeLeaves(t, &out, "by_loc", tbl.seconds[0], func(key, v []byte) string {
		f, err := decodeKey(tbl.indexes[0].types, key)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s:%d=%s", short(f[0]), f[1], val(v))
	})

	golden := filepath.Join("testdata", "leaf_layout_golden.txt")
	if *updateLeafLayout {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(wantLines)) {
			if got[i] != wantLines[i] {
				t.Fatalf("leaf layout differs from %s at line %d:\n got %.300s\nwant %.300s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("leaf layout differs from %s: %d lines, want %d", golden, len(got), len(wantLines))
	}
}
