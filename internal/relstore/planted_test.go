package relstore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/relprov"
	"repro/internal/relstore"
)

// The tests here plant rows in a provenance store below the table codec
// (PlantRow) and check what relprov, the codec's one user, makes of them.

func rec(tid int64, op provstore.OpKind, loc, src string) provstore.Record {
	r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

// plantedBackend returns a store that holds recs, appended as usual, and
// then rows planted below the table codec: written into both trees as raw
// entries, keyed as the codec keys a row — tid, then loc as a path field
// (its bytes and one 0x00), or the other way round — so a loc the codec
// refuses reaches the trees as a damaged page would hold it.
func plantedBackend(t *testing.T, recs []provstore.Record, rows ...relstore.Row) *relprov.Backend {
	t.Helper()
	file := filepath.Join(t.TempDir(), "prov.rel")
	b, err := relprov.OpenFile(file, relprov.Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	plant(t, file, rows)
	if b, err = relprov.OpenFile(file, relprov.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// plant inserts rows into the closed store file's provenance trees with
// PlantRow.
func plant(t *testing.T, file string, rows []relstore.Row) {
	t.Helper()
	db, err := relstore.Open(file, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for _, row := range rows {
		tid, loc := row[0].(int64), row[1].([]byte)
		// The row codec's value: op and src, each behind a uvarint length.
		op, src := row[2].(string), row[3].([]byte)
		val := append(binary.AppendUvarint(nil, uint64(len(op))), op...)
		val = append(binary.AppendUvarint(val, uint64(len(src))), src...)
		pk := relstore.AppendKeyPath(relstore.AppendKeyInt(nil, tid), loc)
		ik := relstore.AppendKeyInt(relstore.AppendKeyPath(nil, loc), tid)
		if err := relstore.PlantRow(db, relprov.TableName, pk, ik, val); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRelProvCorruptRows: the backend decodes stored rows itself, off the
// leaf's bytes. A row that is not a record — planted below the table codec,
// behind the backend's back — is an error from every read that meets it, by
// scan, by index and by key: never a panic, never a record.
func TestRelProvCorruptRows(t *testing.T) {
	ctx := context.Background()
	good := path.MustParse("T/a").AppendBinary(nil)
	for name, row := range map[string]relstore.Row{
		"op of two bytes":       {int64(1), good, "IC", []byte{}},
		"op outside I, C, D":    {int64(1), good, "Q", []byte{}},
		"empty label in loc":    {int64(1), []byte("T\x00\x00"), "I", []byte{}},
		"unterminated loc":      {int64(1), []byte("T\x00a"), "I", []byte{}},
		"separator in loc":      {int64(1), []byte("T\x00a/b\x00"), "I", []byte{}},
		"bad escape in loc":     {int64(1), []byte("T\x00a\x01\x7f\x00"), "I", []byte{}},
		"separator in src":      {int64(1), good, "C", []byte("S/a\x00")},
		"copy without a source": {int64(1), good, "C", []byte{}},
		"insert with a source":  {int64(1), good, "I", good},
		"root location":         {int64(1), []byte{}, "I", []byte{}},
	} {
		b := plantedBackend(t, nil, row)
		tbl, err := b.DB().Table(relprov.TableName)
		if err != nil {
			t.Fatal(err)
		}
		// A loc the codec cannot key has no key it decodes either, which
		// CheckCovering needs; every other planted row is in both trees.
		if enc, rest, err := relstore.DecodeKeyPath(relstore.AppendKeyPath(nil, row[1].([]byte))); err == nil && len(rest) == 0 && bytes.Equal(enc, row[1].([]byte)) {
			provtest.CheckCovering(t, tbl)
		}
		loc, _ := path.DecodeBinaryString(string(row[1].([]byte))) // the root when loc is the corrupt column
		for _, spec := range []provstore.ScanSpec{provstore.All(), provstore.ByTid(1), provstore.ByPrefix(path.Root)} {
			n := 0
			var serr error
			for _, err := range b.Scan(ctx, spec) {
				if err != nil {
					serr = err
					break
				}
				n++
			}
			if serr == nil || n != 0 {
				t.Errorf("%s: %v yielded %d records, then %v; want an error and no record", name, spec, n, serr)
			}
		}
		if !loc.IsRoot() {
			if got, found, err := provstore.Lookup(ctx, b, 1, loc); err == nil {
				t.Errorf("%s: Lookup answered %v, %v; want an error", name, got, found)
			}
		}
	}
}

// TestRelProvCorruptRowMidWindow: a corrupt row in the middle of a cursor's
// largest window — its 128th row of 256 — ends the cursor after the rows
// before it, intact, whether the row is caught while it is copied out of its
// leaf (an op of two bytes, or an empty label in loc, whose key field ends
// early) or when the window's paths are decoded (a separator in loc), by
// either tree.
func TestRelProvCorruptRowMidWindow(t *testing.T) {
	ctx := context.Background()
	for name, row := range map[string]relstore.Row{
		"op of two bytes":    {int64(1), path.MustParse("T/a00207z").AppendBinary(nil), "IC", []byte{}},
		"empty label in loc": {int64(1), []byte("T\x00a00207z\x00\x00"), "I", []byte{}},
		"separator in loc":   {int64(1), []byte("T\x00a00207z/\x00"), "I", []byte{}},
	} {
		var recs []provstore.Record
		for i := 0; i < 400; i++ {
			r := rec(1, provstore.OpInsert, fmt.Sprintf("T/a%05d", i), "")
			if i%2 == 1 {
				r = rec(1, provstore.OpCopy, r.Loc.String(), fmt.Sprintf("S/x/b%05d", i))
			}
			recs = append(recs, r)
		}
		b := plantedBackend(t, recs, row)
		// Windows of 16 and 64 rows, then 256 from row 80: the corrupt row,
		// sorting after T/a00207, is row 208, the 128th of that window.
		const before = 208
		for _, spec := range []provstore.ScanSpec{provstore.All(), provstore.ByTid(1), provstore.ByPrefix(path.MustParse("T"))} {
			var got []provstore.Record
			var serr error
			for r, err := range b.Scan(ctx, spec) {
				if err != nil {
					serr = err
					break
				}
				got = append(got, r)
			}
			if serr == nil || len(got) != before {
				t.Errorf("%s: %v yielded %d records, then %v; want %d, then an error", name, spec, len(got), serr, before)
				continue
			}
			for i, r := range got {
				if !r.Loc.Equal(recs[i].Loc) || !r.Src.Equal(recs[i].Src) || r.Op != recs[i].Op || r.Tid != recs[i].Tid {
					t.Errorf("%s: %v: record %d is %v, want %v", name, spec, i, r, recs[i])
					break
				}
			}
		}
	}
}
