package relstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// keyPrefix encodes a partial primary key of t — its first len(vals) key
// columns — for prefix scans.
func keyPrefix(t *Table, vals ...Value) ([]byte, error) {
	return encodeKey(t.keyType, vals)
}

// indexPrefix encodes a partial key of t's index — values for its first
// len(vals) fields, the index columns and then the primary-key columns not
// among them — for prefix scans and seeks.
func indexPrefix(t *Table, index string, vals ...Value) ([]byte, error) {
	ixi := t.findIndex(index)
	if ixi < 0 {
		return nil, fmt.Errorf("%w: %q", errNoSuchIndex, index)
	}
	return encodeKey(t.indexes[ixi].types, vals)
}

func provSchema() TableSchema {
	return TableSchema{
		Name: "prov",
		Columns: []Column{
			{Name: "tid", Type: TInt},
			{Name: "loc", Type: TBytes},
			{Name: "op", Type: TStr},
			{Name: "src", Type: TBytes},
		},
		Key: []string{"tid", "loc"},
		Indexes: []IndexDef{
			{Name: "by_loc", Columns: []string{"loc"}},
		},
	}
}

func testDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db.rel"), true, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestKeyCodecOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		ka := AppendKeyInt(nil, a)
		kb := AppendKeyInt(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		ka := appendKeyBytes(nil, []byte(a))
		kb := appendKeyBytes(nil, []byte(b))
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCodecRoundTrip(t *testing.T) {
	f := func(v int64, s string) bool {
		buf := AppendKeyInt(nil, v)
		buf = appendKeyBytes(buf, []byte(s))
		got, rest, err := DecodeKeyInt(buf)
		return err == nil && got == v && bytes.Equal(rest, appendKeyBytes(nil, []byte(s)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPathField: a path field is empty or a run of non-empty labels each
// ended by 0x00, and only such a value is stored in a TPath column, as a key
// field or in a row's value.
func TestPathField(t *testing.T) {
	for _, c := range []struct {
		v     string
		valid bool
	}{
		{"", true}, {"T\x00", true}, {"T\x00c1\x00", true}, {"a\x01\x02\x00", true},
		{"\x00", false}, {"T", false}, {"T\x00a", false}, {"T\x00\x00", false},
		{"\x00T\x00", false}, {"T\x00\x00a\x00", false},
	} {
		v := []byte(c.v)
		if validPathField(v) != c.valid {
			t.Errorf("validPathField(%q) = %v", c.v, !c.valid)
		}
		if _, err := encodeKey([]ColType{TPath}, []Value{v}); (err == nil) != c.valid {
			t.Errorf("encodeKey of the path field %q: %v", c.v, err)
		}
		if _, err := encodeValues([]ColType{TPath}, Row{v}); (err == nil) != c.valid {
			t.Errorf("encodeValues of the path field %q: %v", c.v, err)
		}
		if _, err := decodeRow([]ColType{TPath}, append([]byte{byte(len(v))}, v...)); (err == nil) != c.valid {
			t.Errorf("DecodeRow of the path field %q: %v", c.v, err)
		}
	}
}

func TestKeyCodecErrors(t *testing.T) {
	if _, _, err := DecodeKeyInt([]byte{1, 2}); err == nil {
		t.Error("short int key should error")
	}
	if _, err := encodeKey([]ColType{TInt}, []Value{"notint"}); err == nil {
		t.Error("type mismatch should error")
	}
	if _, err := encodeKey([]ColType{TInt}, []Value{int64(1), int64(2)}); err == nil {
		t.Error("too many values should error")
	}
}

// encodeValues encodes a sequence of values per the column types, as a
// table encodes the columns outside its key.
func encodeValues(types []ColType, row Row) ([]byte, error) {
	if len(row) != len(types) {
		return nil, fmt.Errorf("relstore: row has %d values, table has %d columns", len(row), len(types))
	}
	var buf []byte
	for i, v := range row {
		var err error
		if buf, err = appendValue(buf, i, types[i], v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func TestRowCodec(t *testing.T) {
	types := []ColType{TInt, TStr, TBytes}
	row := Row{int64(-42), "hello", []byte{0, 1, 2}}
	enc, err := encodeValues(types, row)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeRow(types, enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].(int64) != -42 || dec[1].(string) != "hello" || !bytes.Equal(dec[2].([]byte), []byte{0, 1, 2}) {
		t.Errorf("row round trip: %v", dec)
	}
	if _, err := encodeValues(types, Row{int64(1)}); err == nil {
		t.Error("short row should error")
	}
	if _, err := encodeValues(types, Row{"x", "y", []byte{}}); err == nil {
		t.Error("type mismatch should error")
	}
	if _, err := decodeRow(types, append(enc, 0xFF)); err == nil {
		t.Error("trailing bytes should error")
	}
	if _, err := decodeRow(types, enc[:3]); err == nil {
		t.Error("truncated row should error")
	}
}

func TestTableCRUD(t *testing.T) {
	db := testDB(t)
	tbl, err := db.CreateTable(provSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(provSchema()); !errors.Is(err, errTableExists) {
		t.Errorf("duplicate table: %v", err)
	}
	row := Row{int64(121), []byte("T/c5"), "D", []byte{}}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{int64(121), []byte("T/c5"), "C", []byte("S1/a1")}); !errors.Is(err, errDupKey) {
		t.Errorf("duplicate pk: %v", err)
	}
	got, err := tbl.Get(int64(121), []byte("T/c5"))
	if err != nil || got[2].(string) != "D" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := tbl.Get(int64(999), []byte("T/c5")); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("missing row: %v", err)
	}
	if _, err := tbl.Get(int64(1)); err == nil {
		t.Error("wrong key arity should error")
	}
	if tbl.RowCount() != 1 || tbl.ByteSize() <= 0 {
		t.Errorf("counters: rows=%d bytes=%d", tbl.RowCount(), tbl.ByteSize())
	}
}

// TestInsertEncodedOwnTable: a table stores only a row its own Key encoded,
// so the entry stored and the index entries built from the row agree.
func TestInsertEncodedOwnTable(t *testing.T) {
	db := testDB(t)
	tbl, err := db.CreateTable(provSchema())
	if err != nil {
		t.Fatal(err)
	}
	other := provSchema()
	other.Name = "other"
	otherTbl, err := db.CreateTable(other)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tbl.Key(Row{int64(7), []byte("T/c1"), "I", []byte{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := otherTbl.InsertEncoded(e); err == nil {
		t.Error("a row encoded by another table was stored")
	}
	if err := tbl.InsertEncoded(EncodedRow{}); err == nil {
		t.Error("the zero EncodedRow was stored")
	}
	if otherTbl.RowCount() != 0 || tbl.RowCount() != 0 {
		t.Fatalf("rows stored: %d, %d", tbl.RowCount(), otherTbl.RowCount())
	}
	if err := tbl.InsertEncoded(e); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(int64(7), []byte("T/c1"))
	if err != nil || got[2].(string) != "I" {
		t.Fatalf("Get = %v, %v", got, err)
	}
}

func TestTableScans(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.CreateTable(provSchema())
	for tid := int64(1); tid <= 3; tid++ {
		for j := 0; j < 4; j++ {
			loc := []byte(fmt.Sprintf("T/c%d", j))
			if err := tbl.Insert(Row{tid, loc, "I", []byte{}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Primary prefix scan: all rows of tid 2.
	prefix, err := keyPrefix(tbl, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	tbl.scanKeyFrom(prefix, prefix, func(_ []byte, r Row) bool {
		if r[0].(int64) != 2 {
			t.Errorf("wrong tid in scan: %v", r)
		}
		count++
		return true
	})
	if count != 4 {
		t.Errorf("prefix scan saw %d rows", count)
	}
	// Secondary index scan: all tids touching T/c1.
	iprefix, err := indexPrefix(tbl, "by_loc", []byte("T/c1"))
	if err != nil {
		t.Fatal(err)
	}
	var tids []int64
	tbl.ScanIndexEncodedFrom("by_loc", iprefix, iprefix, func(key, _ []byte) bool {
		vals, err := decodeKey([]ColType{TBytes, TInt}, key)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, vals[1].(int64))
		return true
	})
	if len(tids) != 3 {
		t.Errorf("index scan saw %v", tids)
	}
	// Full scan.
	total := 0
	tbl.Scan(func(Row) bool { total++; return true })
	if total != 12 {
		t.Errorf("full scan saw %d", total)
	}
	// Unknown index errors.
	if err := tbl.ScanIndexEncodedFrom("nope", nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, errNoSuchIndex) {
		t.Errorf("unknown index scan: %v", err)
	}
}

func TestSchemaValidation(t *testing.T) {
	db := testDB(t)
	bad := []TableSchema{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TStr}}, Key: []string{"a"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: ColType('?')}}, Key: []string{"a"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"zz"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"a"},
			Indexes: []IndexDef{{Name: "", Columns: []string{"a"}}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"a"},
			Indexes: []IndexDef{{Name: "ix", Columns: []string{"zz"}}}},
	}
	for i, s := range bad {
		if _, err := db.CreateTable(s); !errors.Is(err, errBadSchema) {
			t.Errorf("schema %d: %v", i, err)
		}
	}
}

// TestDBPersistence creates a database with data, closes it, reopens it and
// verifies the catalog, rows, indexes and counters all survive.
func TestDBPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.rel")
	db, err := Open(path, true, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(provSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		row := Row{int64(i / 5), []byte(fmt.Sprintf("T/c%d/x%d", i%5, i)), "C", []byte("S/a")}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := tbl.ByteSize()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	names := db2.TableNames()
	if len(names) != 1 || names[0] != "prov" {
		t.Fatalf("TableNames = %v", names)
	}
	tbl2, err := db2.Table("prov")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.RowCount() != n || tbl2.ByteSize() != wantBytes {
		t.Errorf("counters after reopen: rows=%d bytes=%d", tbl2.RowCount(), tbl2.ByteSize())
	}
	got, err := tbl2.Get(int64(7), []byte("T/c0/x35"))
	if err != nil || got[2].(string) != "C" {
		t.Fatalf("row after reopen: %v, %v", got, err)
	}
	// Secondary index still works.
	iprefix, _ := indexPrefix(tbl2, "by_loc", []byte("T/c0/x35"))
	found := 0
	tbl2.ScanIndexEncodedFrom("by_loc", iprefix, iprefix, func(_, _ []byte) bool { found++; return true })
	if found != 1 {
		t.Errorf("index after reopen found %d", found)
	}
	if _, err := db2.Table("missing"); !errors.Is(err, errNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
}

// TestOpenRefusesUnreadableCatalog writes a catalog record that is not JSON
// behind a valid one, on a page whose checksum holds: Open must fail on it
// rather than open the store without the table it describes.
func TestOpenRefusesUnreadableCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.rel")
	db, err := Open(path, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(provSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	pager, err := openPagerPath(path)
	if err != nil {
		t.Fatal(err)
	}
	bp := newBufferPool(pager, 8)
	cat, err := openHeap(bp, pager.catalogRoot())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Insert([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := bp.flushGroup(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}

	var syntax *json.SyntaxError
	if db, err := Open(path, false, false); !errors.As(err, &syntax) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open of a store whose catalog holds a record that is not JSON: %v, want a JSON syntax error", err)
	}
}

func TestDBSizeGrows(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.CreateTable(provSchema())
	s0, err := db.Size()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tbl.Insert(Row{int64(i), []byte(fmt.Sprintf("T/n%d", i)), "I", []byte{}})
	}
	s1, err := db.Size()
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= s0 {
		t.Errorf("file did not grow: %d -> %d", s0, s1)
	}
}

// TestTableRandomizedAgainstModel mirrors a randomized insert workload in a
// map keyed by the primary key and verifies contents and secondary
// consistency. A primary key drawn again must be refused with errDupKey and
// leave the stored row, the index and the counters as they were.
func TestTableRandomizedAgainstModel(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.CreateTable(provSchema())
	type pk struct {
		tid int64
		loc string
	}
	model := map[pk]Row{}
	r := rand.New(rand.NewSource(99))
	// Locs of three shapes — short, behind a long shared prefix, and nested so
	// that one is a prefix of another — and sources from empty to most of an
	// entry.
	deep := strings.Repeat("shared/prefix/", 12)
	for i := 0; i < 3000; i++ {
		k := pk{int64(r.Intn(40)), fmt.Sprintf("T/c%d", r.Intn(60))}
		switch r.Intn(3) {
		case 1:
			k.loc = deep + k.loc
		case 2:
			k.loc += strings.Repeat("/x", r.Intn(3))
		}
		src := fmt.Sprintf("S/%d", i)
		switch r.Intn(8) {
		case 0:
			src = ""
		case 1:
			src = strings.Repeat("s", 700)
		}
		err := tbl.Insert(Row{k.tid, []byte(k.loc), "C", []byte(src)})
		old, dup := model[k]
		if !dup {
			if err != nil {
				t.Fatal(err)
			}
			model[k] = Row{k.tid, []byte(k.loc), "C", []byte(src)}
			continue
		}
		if !errors.Is(err, errDupKey) {
			t.Fatalf("insert of existing %v: %v", k, err)
		}
		if got, err := tbl.Get(k.tid, []byte(k.loc)); err != nil || string(got[3].([]byte)) != string(old[3].([]byte)) {
			t.Fatalf("refused insert of %v changed its row: %v, %v", k, got, err)
		}
	}
	if dups := 3000 - len(model); dups < 100 {
		t.Fatalf("test premise: only %d keys drawn twice", dups)
	}
	if int(tbl.RowCount()) != len(model) {
		t.Fatalf("RowCount = %d, model %d", tbl.RowCount(), len(model))
	}
	var size int64
	for _, row := range model {
		pk, val, err := tbl.encodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		size += int64(len(pk) + len(val))
	}
	if tbl.ByteSize() != size {
		t.Errorf("ByteSize = %d, model %d", tbl.ByteSize(), size)
	}
	check := func(where string, row Row) {
		t.Helper()
		k := pk{row[0].(int64), string(row[1].([]byte))}
		want, ok := model[k]
		if !ok {
			t.Errorf("%s: phantom row %v", where, row)
			return
		}
		if row[2].(string) != "C" || string(row[3].([]byte)) != string(want[3].([]byte)) {
			t.Errorf("%s: row %v: op %q src %q, want src %q", where, k, row[2], row[3], want[3])
		}
	}
	seen := 0
	tbl.Scan(func(row Row) bool {
		seen++
		check("scan", row)
		return true
	})
	if seen != len(model) {
		t.Errorf("scan saw %d, model %d", seen, len(model))
	}
	for k := range model {
		row, err := tbl.Get(k.tid, []byte(k.loc))
		if err != nil {
			t.Fatalf("Get(%v): %v", k, err)
		}
		check("get", row)
	}
	// The index holds one entry per row, in (loc, tid) order, and each holds
	// its row: the index key's fields are the primary key's in another order,
	// and its value is the row's stored value.
	seen = 0
	var last pk
	if err := tbl.ScanIndexEncodedFrom("by_loc", nil, nil, func(key, val []byte) bool {
		kv, err := decodeKey([]ColType{TBytes, TInt}, key)
		if err != nil {
			t.Fatal(err)
		}
		row, err := tbl.decodeRow(appendKeyBytes(AppendKeyInt(nil, kv[1].(int64)), kv[0].([]byte)), val)
		if err != nil {
			t.Fatal(err)
		}
		check("index", row)
		k := pk{row[0].(int64), string(row[1].([]byte))}
		if seen > 0 && (k.loc < last.loc || k.loc == last.loc && k.tid <= last.tid) {
			t.Errorf("index yields %v after %v", k, last)
		}
		last = k
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Errorf("index scan saw %d, model %d", seen, len(model))
	}
}

// TestScanDecidesOnKeys checks that scans and probes settle on keys before
// touching rows: the entry that ends a bounded walk, a walk whose range is
// empty, Has and LastKey decode no row at all.
func TestScanDecidesOnKeys(t *testing.T) {
	db := testDB(t)
	tbl, _ := db.CreateTable(provSchema())
	// Forty transactions over the same four locs: a loc's index entries fill
	// runs of their own, so a walk begins and ends inside runs and between them.
	const tids = 40
	for tid := int64(1); tid <= tids; tid++ {
		for j := 0; j < 4; j++ {
			if err := tbl.Insert(Row{tid * 10, []byte(fmt.Sprintf("T/c%d", j)), "I", []byte{}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	decoded := func(f func()) int64 {
		before := tbl.RowsDecoded()
		f()
		return tbl.RowsDecoded() - before
	}
	indexRows := func(loc string) (rows int) {
		prefix, err := indexPrefix(tbl, "by_loc", []byte(loc))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.ScanIndexEncodedFrom("by_loc", prefix, prefix, func(_, _ []byte) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	// T/c1 is followed in the index by T/c2: a row per transaction, and as
	// many decodes.
	if n := decoded(func() {
		if rows := indexRows("T/c1"); rows != tids {
			t.Errorf("index scan of T/c1 saw %d rows", rows)
		}
	}); n != tids {
		t.Errorf("index scan of %d rows decoded %d", tids, n)
	}
	// Empty ranges: between two stored locs, and past the last one.
	for _, loc := range []string{"T/c", "T/c1x", "T/zz"} {
		if n := decoded(func() {
			if rows := indexRows(loc); rows != 0 {
				t.Errorf("index scan of absent %s saw %d rows", loc, rows)
			}
		}); n != 0 {
			t.Errorf("index scan of absent %s decoded %d rows", loc, n)
		}
	}
	// Primary walk bounded to tid 20, resumed after its second row.
	prefix, _ := keyPrefix(tbl, int64(20))
	from, _ := keyPrefix(tbl, int64(20), []byte("T/c1"))
	if n := decoded(func() {
		rows := 0
		tbl.scanKeyFrom(append(from, 0), prefix, func([]byte, Row) bool { rows++; return true })
		if rows != 2 {
			t.Errorf("resumed key scan saw %d rows, want 2", rows)
		}
	}); n != 2 {
		t.Errorf("resumed key scan of 2 rows decoded %d", n)
	}
	// Key-only probes.
	if n := decoded(func() {
		if ok, err := tbl.Has(from); err != nil || !ok {
			t.Errorf("Has(stored) = %v, %v", ok, err)
		}
		absent, _ := keyPrefix(tbl, int64(20), []byte("T/nope"))
		if ok, err := tbl.Has(absent); err != nil || ok {
			t.Errorf("Has(absent) = %v, %v", ok, err)
		}
		last, ok, err := tbl.LastKey()
		want, _ := keyPrefix(tbl, int64(tids*10), []byte("T/c3"))
		if err != nil || !ok || !bytes.Equal(last, want) {
			t.Errorf("LastKey = %x, %v, %v; want %x", last, ok, err, want)
		}
	}); n != 0 {
		t.Errorf("key-only probes decoded %d rows", n)
	}
}
