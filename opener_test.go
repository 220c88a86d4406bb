package cpdb_test

import (
	"context"
	"errors"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	cpdb "repro"

	"repro/internal/figures"
)

// sessionOver runs the Figure 3 script (two transactions of five operations)
// over the given backend and returns the session.
func sessionOver(t *testing.T, backend cpdb.Backend, batch int) *cpdb.Session {
	t.Helper()
	s, err := cpdb.New(cpdb.Config{
		Target: cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{
			cpdb.NewMemSource("S1", figures.S1()),
			cpdb.NewMemSource("S2", figures.S2()),
		},
		Method:          cpdb.HierTrans,
		Backend:         backend,
		BatchSize:       batch,
		StartTid:        figures.FirstTid,
		AutoCommitEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(figures.Script); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOpenBackendRoundTrip drives a full session through every built-in DSN
// scheme and checks the queries answer identically to the in-memory
// reference.
func TestOpenBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dsns := []string{
		"mem://",
		"mem://?shards=4",
		"rel://" + filepath.Join(dir, "flat.db") + "?create=1",
		"rel://" + filepath.Join(dir, "dur.db") + "?create=1&durable=1",
		"sharded://?shard=mem://&shard=mem://&shard=mem://",
		// Sharded over relational shard files; each inner DSN is a query
		// parameter, so it is URL-escaped.
		"sharded://?shard=" + url.QueryEscape("rel://"+filepath.Join(dir, "shard-0.db")+"?create=1") +
			"&shard=" + url.QueryEscape("rel://"+filepath.Join(dir, "shard-1.db")+"?create=1"),
	}

	ref := sessionOver(t, nil, 1)
	refHist, err := ref.Hist(cpdb.MustParsePath("T/c2/y"))
	if err != nil {
		t.Fatal(err)
	}

	for _, dsn := range dsns {
		b, err := cpdb.OpenBackend(dsn)
		if err != nil {
			t.Fatalf("OpenBackend(%q): %v", dsn, err)
		}
		s := sessionOver(t, b, 1)
		hist, err := s.Hist(cpdb.MustParsePath("T/c2/y"))
		if err != nil {
			t.Fatalf("%s: Hist: %v", dsn, err)
		}
		if !reflect.DeepEqual(hist, refHist) {
			t.Errorf("%s: Hist = %v, want %v", dsn, hist, refHist)
		}
		refRecs, _ := ref.Records()
		recs, err := s.Records()
		if err != nil || !reflect.DeepEqual(recs, refRecs) {
			t.Errorf("%s: Records diverge (%v)", dsn, err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: Close: %v", dsn, err)
		}
	}
}

// thirdPartyDriver is a minimal external driver: it serves mem backends and
// records what it was asked to open.
type thirdPartyDriver struct{ opened []string }

func (d *thirdPartyDriver) Open(dsn cpdb.DSN) (cpdb.Backend, error) {
	d.opened = append(d.opened, dsn.String())
	if dsn.Path != "" {
		return nil, errors.New("thirdparty: no path supported")
	}
	return cpdb.OpenBackend("mem://")
}

// TestThirdPartyDriverSession registers a driver under a new scheme and
// round-trips a full session through it — the extension point a real
// network or cloud store would use.
func TestThirdPartyDriverSession(t *testing.T) {
	drv := &thirdPartyDriver{}
	cpdb.RegisterDriver("thirdparty", drv)
	b, err := cpdb.OpenBackend("thirdparty://")
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOver(t, b, 1)
	defer s.Close()
	tr, err := s.Trace(cpdb.MustParsePath("T/c2/y"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Origin != cpdb.OriginExternal {
		t.Errorf("trace origin = %v, want external (copied from S2)", tr.Origin)
	}
	if len(drv.opened) != 1 || drv.opened[0] != "thirdparty://" {
		t.Errorf("driver saw %v", drv.opened)
	}
	schemes := cpdb.BackendSchemes()
	found := false
	for _, sch := range schemes {
		found = found || sch == "thirdparty"
	}
	if !found {
		t.Errorf("thirdparty missing from schemes %v", schemes)
	}
}

// TestQueryAsOfHistoricalTrace is the time-travel acceptance check:
// Query(AsOf(tid)) over the full store must reproduce exactly the answers a
// session that ran only the script prefix up to tid gives.
func TestQueryAsOfHistoricalTrace(t *testing.T) {
	full := sessionOver(t, nil, 1) // txns 121 (ops 1-5) and 122 (ops 6-10)

	// Re-run only the first transaction's prefix in a fresh session.
	seq, err := cpdb.ParseScript(figures.Script)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := cpdb.New(cpdb.Config{
		Target: cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{
			cpdb.NewMemSource("S1", figures.S1()),
			cpdb.NewMemSource("S2", figures.S2()),
		},
		Method:   cpdb.HierTrans,
		StartTid: figures.FirstTid,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range seq[:5] {
		if err := prefix.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := prefix.Commit(); err != nil {
		t.Fatal(err)
	}

	asOf := full.Query(cpdb.AsOf(figures.FirstTid))
	for _, loc := range []string{"T/c1/y", "T/c2", "T/c2/y", "T/c5"} {
		p := cpdb.MustParsePath(loc)
		want, werr := prefix.Trace(p)
		got, gerr := asOf.Trace(p)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error mismatch: prefix %v vs asof %v", loc, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: AsOf trace %+v != prefix trace %+v", loc, got, want)
		}
		wantMod, _ := prefix.Mod(p)
		gotMod, err := asOf.Mod(p)
		if err != nil || !reflect.DeepEqual(gotMod, wantMod) {
			t.Errorf("%s: AsOf Mod %v != prefix Mod %v (%v)", loc, gotMod, wantMod, err)
		}
	}

	// The divergence AsOf hides: now, T/c2/y is a copy from S2; as of txn
	// 121 it was a local insert.
	nowTr, err := full.Trace(cpdb.MustParsePath("T/c2/y"))
	if err != nil {
		t.Fatal(err)
	}
	thenTr, err := asOf.Trace(cpdb.MustParsePath("T/c2/y"))
	if err != nil {
		t.Fatal(err)
	}
	if nowTr.Origin != cpdb.OriginExternal || thenTr.Origin != cpdb.OriginInserted {
		t.Errorf("origins now=%v then=%v, want external/inserted", nowTr.Origin, thenTr.Origin)
	}
}

// TestVersionedQueryAt lines provenance-as-of up with data-as-of.
func TestVersionedQueryAt(t *testing.T) {
	v, err := cpdb.NewVersioned(cpdb.Config{
		Target: cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{
			cpdb.NewMemSource("S1", figures.S1()),
			cpdb.NewMemSource("S2", figures.S2()),
		},
		Method:   cpdb.HierTrans,
		StartTid: figures.FirstTid,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := cpdb.ParseScript(figures.Script)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range seq {
		if err := v.Apply(op); err != nil {
			t.Fatal(err)
		}
		if (i+1)%5 == 0 {
			if _, err := v.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	q, node, err := v.QueryAt(figures.FirstTid)
	if err != nil {
		t.Fatal(err)
	}
	// The archived version must contain the txn-121 state: c2/y exists and
	// is the freshly inserted empty node, not yet S2's copied subtree
	// (which would have an x child).
	y, err := node.Get(cpdb.MustParsePath("c2/y"))
	if err != nil {
		t.Fatalf("version at 121 lacks c2/y: %v", err)
	}
	if y.IsLeaf() {
		t.Error("version at 121 already shows the txn-122 copy (leaf value from S2)")
	}
	tr, err := q.Trace(cpdb.MustParsePath("T/c2/y"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Origin != cpdb.OriginInserted {
		t.Errorf("QueryAt(121) trace origin = %v, want inserted", tr.Origin)
	}
}

// TestQueryRecordsStreaming checks the streaming iterator against the
// materializing Records, its AsOf horizon, early termination, and
// mid-iteration cancellation.
func TestQueryRecordsStreaming(t *testing.T) {
	s := sessionOver(t, openBackend(t, "mem://?shards=4"), 1)
	defer s.Close()

	want, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	var got []cpdb.Record
	for rec, err := range s.Query().Records(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %d records != materialized %d", len(got), len(want))
	}

	// AsOf horizon: only txn-121 records stream.
	for rec, err := range s.Query(cpdb.AsOf(figures.FirstTid)).Records(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if rec.Tid != figures.FirstTid {
			t.Fatalf("AsOf(%d) streamed record of txn %d", figures.FirstTid, rec.Tid)
		}
	}

	// Early break stops the stream without error.
	n := 0
	for _, err := range s.Query().Records(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early break saw %d records", n)
	}

	// A cancelled context surfaces as the final yielded error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range s.Query().Records(ctx) {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("streamed error %v, want context.Canceled", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("cancelled stream yielded no error")
	}
}

// TestSessionClose: Close flushes the batching buffer and releases the
// durable store's files; reopening sees every acknowledged record.
func TestSessionClose(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prov.db")
	b, err := cpdb.OpenBackend("rel://" + file + "?create=1&durable=1")
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOver(t, b, 64) // batch larger than the record count: all buffered
	n, err := s.RecordCount()  // read-through forces nothing to be lost later
	if err != nil || n == 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file + ".wal"); err != nil {
		t.Fatalf("WAL missing after close: %v", err)
	}
	b2, err := cpdb.OpenBackend("rel://" + file + "?durable=1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := b2.Stat(context.Background())
	n2 := st.Count
	if err != nil || n2 != n {
		t.Fatalf("reopened count = %d, %v; want %d", n2, err, n)
	}
	if err := cpdb.CloseBackend(b2); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFileTargetCorruptFile is the regression test for the silent
// re-initialization bug: a truncated database file must surface a load
// error, not be overwritten with a fresh target.
func TestOpenFileTargetCorruptFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "t.xdb")

	// A fresh path still creates.
	if _, err := cpdb.OpenFileTarget("T", file, figures.T0()); err != nil {
		t.Fatal(err)
	}
	healthy, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(healthy) < 8 {
		t.Fatalf("store file implausibly small (%d bytes)", len(healthy))
	}

	// Truncate the stored file mid-record: opening must fail and must NOT
	// silently recreate the database.
	corrupt := healthy[:len(healthy)/2]
	if err := os.WriteFile(file, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cpdb.OpenFileTarget("T", file, figures.T0()); err == nil {
		t.Fatal("corrupt target file opened (or was silently re-created)")
	}
	after, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, corrupt) {
		t.Error("corrupt file was rewritten by the failed open")
	}

	// Unreadable (permission-denied) files likewise error out rather than
	// being re-created. Root bypasses permission bits, so only assert when
	// the chmod actually bites.
	if err := os.WriteFile(file, healthy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(file, 0o000); err == nil {
		if f, err := os.Open(file); err != nil {
			if _, err := cpdb.OpenFileTarget("T", file, figures.T0()); err == nil {
				t.Error("permission-denied target file was re-created")
			}
		} else {
			f.Close()
		}
		os.Chmod(file, 0o644)
	}
}
