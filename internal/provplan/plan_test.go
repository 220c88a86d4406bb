package provplan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/path"
	"repro/internal/provstore"
)

func rec(tid int64, op provstore.OpKind, loc string, src string) provstore.Record {
	r := provstore.Record{Tid: tid, Op: op, Loc: path.MustParse(loc)}
	if src != "" {
		r.Src = path.MustParse(src)
	}
	return r
}

// fixture is a small store with hierarchy, copies across subtrees and
// several transactions — enough to make every access path reachable.
func fixture() []provstore.Record {
	return []provstore.Record{
		rec(1, provstore.OpInsert, "T/c1", ""),
		rec(1, provstore.OpInsert, "T/c1/y", ""),
		rec(2, provstore.OpCopy, "T/c2", "S/a"),
		rec(2, provstore.OpCopy, "T/c2/x", "S/a/x"),
		rec(3, provstore.OpCopy, "T/c1/y", "T/c2/x"),
		rec(4, provstore.OpDelete, "T/c2/x", ""),
		rec(5, provstore.OpInsert, "T/c3", ""),
		rec(5, provstore.OpCopy, "T/c3/z", "T/c1/y"),
		rec(6, provstore.OpCopy, "U/m", "T/c3"),
		rec(7, provstore.OpInsert, "T/c1/y2", ""),
	}
}

func load(t *testing.T, b provstore.Backend) {
	t.Helper()
	if err := b.Append(context.Background(), fixture()); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

// naiveMatch re-states the predicate semantics independently of
// compiledPred, as the reference the planner is checked against.
func naiveMatch(q *Query, r provstore.Record) bool {
	w := q.Where
	if w.TidMin > 0 && r.Tid < w.TidMin {
		return false
	}
	if w.TidMax > 0 && r.Tid > w.TidMax {
		return false
	}
	if w.Ops != "" && !strings.ContainsRune(w.Ops, rune(r.Op)) {
		return false
	}
	if w.Loc != "" && !path.MustParsePattern(w.Loc).Matches(r.Loc) {
		return false
	}
	if w.LocUnder != "" && !path.MustParse(w.LocUnder).IsPrefixOf(r.Loc) {
		return false
	}
	if w.LocAbove != "" && !r.Loc.IsPrefixOf(path.MustParse(w.LocAbove)) {
		return false
	}
	if w.Src != "" && (r.Src.IsRoot() || !path.MustParsePattern(w.Src).Matches(r.Src)) {
		return false
	}
	if w.SrcUnder != "" && (r.Src.IsRoot() || !path.MustParse(w.SrcUnder).IsPrefixOf(r.Src)) {
		return false
	}
	return true
}

// naiveEval evaluates a select query by brute force over the record set.
func naiveEval(q *Query, all []provstore.Record) []provstore.Record {
	var out []provstore.Record
	for _, r := range all {
		if !naiveMatch(q, r) {
			continue
		}
		if q.Join != nil {
			sub := naiveEval(q.Join.Sub, all)
			on := q.Join.On
			if on == "" {
				on = joinTid
			}
			hit := false
			for _, s := range sub {
				switch on {
				case joinTid:
					hit = s.Tid == r.Tid
				case joinSrcLoc:
					hit = !r.Src.IsRoot() && r.Src.Equal(s.Loc)
				case joinLocSrc:
					hit = !s.Src.IsRoot() && r.Loc.Equal(s.Src)
				}
				if hit {
					break
				}
			}
			if !hit {
				continue
			}
		}
		out = append(out, r)
	}
	cmp := provstore.CompareTidLoc
	if q.Order == OrderLocTid {
		cmp = provstore.CompareLocTid
	}
	slices.SortStableFunc(out, cmp)
	if q.Desc {
		slices.Reverse(out)
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

func sameRecords(a, b []provstore.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if provstore.CompareTidLoc(a[i], b[i]) != 0 || a[i].Op != b[i].Op || !a[i].Src.Equal(b[i].Src) {
			return false
		}
	}
	return true
}

// backends returns the local backend fixtures select plans are checked on.
func backends(t *testing.T) map[string]provstore.Backend {
	t.Helper()
	return map[string]provstore.Backend{
		"mem":     provstore.NewMemBackend(),
		"sharded": provstore.NewShardedMem(4),
	}
}

// TestSeekKeyForTidRange pins the planner's keyset-seek trick: every stored
// location is strictly greater than path.Root under Compare, so the keys
// strictly after (N, Root) are exactly the records with Tid >= N. If a
// backend's ScanAllAfter ever disagreed, tid-range pushdown would silently
// drop the boundary transaction.
func TestSeekKeyForTidRange(t *testing.T) {
	for name, b := range backends(t) {
		load(t, b)
		all, err := provstore.CollectScan(b.Scan(context.Background(), provstore.All()))
		if err != nil {
			t.Fatal(err)
		}
		for n := int64(1); n <= 8; n++ {
			got, err := provstore.CollectScan(b.Scan(context.Background(), provstore.All().After(n, path.Root)))
			if err != nil {
				t.Fatal(err)
			}
			var want []provstore.Record
			for _, r := range all {
				if r.Tid >= n {
					want = append(want, r)
				}
			}
			if !sameRecords(got, want) {
				t.Errorf("%s: ScanAllAfter(%d, Root) = %d records, want %d (Tid >= %d)", name, n, len(got), len(want), n)
			}
		}
	}
}

func TestAccessSelection(t *testing.T) {
	cases := []struct {
		text string
		want string // substring of Explain()[0]
	}{
		{"select", "access=scan-all "},
		{"select where tid>=3", "access=scan-all-after(3"},
		{"select where tid=3", "access=scan-tid(3)"},
		{"select where tid=3..5", "access=scan-all-after(3"},
		{"select where loc=T/c1/y", "access=scan-loc(T/c1/y)"},
		{"select where loc>=T/c2", "access=scan-loc-prefix(T/c2)"},
		{"select where loc=T/c2/*", "access=scan-loc-prefix(T/c2)"},
		{"select where loc=*/c2", "access=scan-all "},
		{"select where loc<=T/c2/x", "access=scan-loc-ancestors(T/c2/x)"},
		{"select where tid<=4", "access=scan-all-until(4)"},
		{"select count where tid>=2 and tid<=5", "agg=count"},
	}
	b := provstore.NewMemBackend()
	for _, tc := range cases {
		q, err := Parse(tc.text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.text, err)
		}
		pl, err := Compile(b, q)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.text, err)
		}
		if got := pl.explain()[0]; !strings.Contains(got, tc.want) {
			t.Errorf("Explain(%q) = %q, want substring %q", tc.text, got, tc.want)
		}
	}

	// The sharded scatter paths announce their parallelism.
	sb := provstore.NewShardedMem(4)
	pl, err := Compile(sb, MustParse("select where tid>=2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.explain()[0]; !strings.Contains(got, "parallel=shards(4)") {
		t.Errorf("sharded Explain = %q, want parallel=shards(4)", got)
	}
}

// TestSelectQueries holds the planner answer-identical to brute force for a
// broad fixed set of queries, on single and sharded stores.
func TestSelectQueries(t *testing.T) {
	texts := []string{
		"select",
		"select where tid>=3",
		"select where tid<=3",
		"select where tid=2..5",
		"select where tid=5",
		"select where op=C",
		"select where op=I,D",
		"select where loc=T/c1/y",
		"select where loc>=T/c2",
		"select where loc<=T/c2/x",
		"select where loc=T/*",
		"select where loc=T/c2/*",
		"select where src>=S",
		"select where src=*/a/x",
		"select where op=C and tid>=3 and loc>=T",
		"select order loc-tid",
		"select desc",
		"select order loc-tid desc",
		"select limit 3",
		"select where tid>=2 limit 2",
		"select where op=C join tid (select where op=D)",
		"select where op=C join src-loc (select where tid<=2)",
		"select join loc-src (select where op=C)",
	}
	for name, b := range backends(t) {
		load(t, b)
		all := fixture()
		for _, text := range texts {
			q, err := Parse(text)
			if err != nil {
				t.Fatalf("Parse(%q): %v", text, err)
			}
			pl, err := Compile(b, q)
			if err != nil {
				t.Fatalf("Compile(%q): %v", text, err)
			}
			got, err := pl.Records(context.Background())
			if err != nil {
				t.Fatalf("%s: Records(%q): %v", name, text, err)
			}
			want := naiveEval(q, all)
			if !sameRecords(got, want) {
				t.Errorf("%s: %q:\n got %v\nwant %v", name, text, got, want)
			}
		}
	}
}

// TestRandomSelectEquivalence is the property test over random predicates:
// whatever the planner pushes down, results match brute force.
func TestRandomSelectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	locs := []string{"T", "T/c1", "T/c1/y", "T/c2", "T/c2/x", "T/c3", "S/a", "U/m", "T/*", "T/c2/*", "*/c1/y"}
	var randQuery func(depth int) *Query
	randQuery = func(depth int) *Query {
		q := &Query{Op: OpSelect}
		if rng.Intn(2) == 0 {
			q.Where.TidMin = int64(1 + rng.Intn(8))
		}
		if rng.Intn(2) == 0 {
			q.Where.TidMax = q.Where.TidMin + int64(rng.Intn(8))
		}
		if rng.Intn(3) == 0 {
			q.Where.Ops = []string{"I", "C", "D", "IC", "ID", "CD"}[rng.Intn(6)]
		}
		switch rng.Intn(4) {
		case 0:
			q.Where.Loc = locs[rng.Intn(len(locs))]
		case 1:
			q.Where.LocUnder = locs[rng.Intn(8)]
		case 2:
			q.Where.LocAbove = locs[rng.Intn(8)]
		}
		if rng.Intn(4) == 0 {
			q.Where.SrcUnder = locs[rng.Intn(8)]
		}
		if rng.Intn(2) == 0 {
			q.Order = OrderLocTid
		}
		if rng.Intn(3) == 0 {
			q.Desc = true
		}
		if rng.Intn(3) == 0 {
			q.Limit = 1 + rng.Intn(5)
		}
		if depth > 0 && rng.Intn(3) == 0 {
			q.Join = &Join{
				On:  []string{joinTid, joinSrcLoc, joinLocSrc}[rng.Intn(3)],
				Sub: randQuery(depth - 1),
			}
			q.Join.Sub.Limit = 0 // keep the reference's join semantics order-free
			q.Join.Sub.Desc = false
		}
		return q
	}
	for name, b := range backends(t) {
		load(t, b)
		all := fixture()
		for i := 0; i < 300; i++ {
			q := randQuery(1)
			pl, err := Compile(b, q)
			if err != nil {
				t.Fatalf("Compile(%v): %v", q, err)
			}
			got, err := pl.Records(context.Background())
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			want := naiveEval(q, all)
			if !sameRecords(got, want) {
				t.Errorf("%s: %q:\n got %v\nwant %v", name, q, got, want)
			}
			// The canonical text form reproduces the query.
			rt, err := Parse(q.String())
			if err != nil {
				t.Fatalf("Parse(String(%q)): %v", q, err)
			}
			if rt.String() != q.String() {
				t.Errorf("round trip: %q != %q", rt.String(), q.String())
			}
		}
	}
}

func TestAggregates(t *testing.T) {
	cases := []struct {
		text  string
		val   int64
		found bool
	}{
		{"select count", 10, true},
		{"select count where op=C", 5, true},
		{"select count where tid=2..4", 4, true},
		{"select min-tid where loc>=T/c2", 2, true},
		{"select max-tid where loc>=T/c1", 7, true},
		{"select min-tid where tid>=9", 0, false},
		{"select count where tid>=9", 0, true},
		{"select max-tid where src>=S", 2, true},
	}
	for name, b := range backends(t) {
		load(t, b)
		for _, tc := range cases {
			res, err := Collect(context.Background(), b, MustParse(tc.text))
			if err != nil {
				t.Fatalf("%s: %q: %v", name, tc.text, err)
			}
			if res.Value != tc.val || res.Found != tc.found {
				t.Errorf("%s: %q = (%d, %v), want (%d, %v)", name, tc.text, res.Value, res.Found, tc.val, tc.found)
			}
		}
	}
}

// TestPushdownScansLess is the point of the planner: the pushed-down plan
// must pull strictly fewer records off the store than the full scan.
func TestPushdownScansLess(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)
	q := MustParse("select where loc>=T/c2 and tid<=3")
	q.Analyze = true
	down, err := Collect(context.Background(), b, q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := compileWith(b, q, options{NoPushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := pl.Records(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(down.Records, full) {
		t.Fatalf("pushdown changed results: %v vs %v", down.Records, full)
	}
	if down.Analysis.Scanned >= int64(len(fixture())) {
		t.Errorf("pushdown scanned %d of %d records; expected fewer", down.Analysis.Scanned, len(fixture()))
	}
}

// TestEarlyStopReleasesCursor verifies the tid upper bound cuts the stream:
// with a limit-1 plan over an ordered access path, iteration stops after
// one yield without draining the backend cursor.
func TestEarlyStopReleasesCursor(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)
	q := MustParse("select where tid<=1")
	q.Analyze = true
	res, err := Collect(context.Background(), b, q)
	if err != nil {
		t.Fatal(err)
	}
	// tid<=1 matches 2 records; the early stop sees one record past the
	// bound (tid 2) and cuts. Without the stop it would scan all 10.
	if res.Analysis.Scanned > 3 {
		t.Errorf("early stop pulled %d records, want <= 3", res.Analysis.Scanned)
	}
	if len(res.Records) != 2 {
		t.Errorf("got %d records, want 2", len(res.Records))
	}
}

func TestCompileErrors(t *testing.T) {
	b := provstore.NewMemBackend()
	bad := []*Query{
		{Op: "frobnicate"},
		{Op: OpSelect, Where: Pred{Ops: "X"}},
		{Op: OpSelect, Where: Pred{TidMin: 5, TidMax: 2}},
		{Op: OpSelect, Where: Pred{Loc: "T//x"}},
		{Op: OpSelect, Agg: "sum"},
		{Op: OpSelect, Agg: aggCount, Limit: 3},
		{Op: OpSelect, Order: "sideways"},
		{Op: OpSelect, Join: &Join{On: "bogus", Sub: &Query{Op: OpSelect}}},
		{Op: OpSelect, Join: &Join{}},
		{Op: OpSelect, Join: &Join{Sub: &Query{Op: OpTrace, Path: "T"}}},
		{Op: OpTrace},
		{Op: OpTrace, Path: "a//b"},
		nil,
	}
	for _, q := range bad {
		if _, err := Compile(b, q); err == nil {
			t.Errorf("Compile(%v): expected error", q)
		}
	}
}

// TestCancellation: a cancelled context surfaces as the in-stream error of
// a running plan.
func TestCancellation(t *testing.T) {
	for name, b := range backends(t) {
		load(t, b)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Collect(ctx, b, MustParse("select")); err == nil {
			t.Errorf("%s: expected error from cancelled select", name)
		}
		if _, err := Collect(ctx, b, MustParse("mod T/c1")); err == nil {
			t.Errorf("%s: expected error from cancelled mod", name)
		}
	}
}

// opaqueBackend hides a store's type from the planner, which then reads a
// sharded store through its merged Scan like any other backend.
type opaqueBackend struct{ provstore.Backend }

// BenchmarkShardScatter prices the planner's shard scatter: the same 4-shard
// store of 10 000 records queried directly, where each shard runs its own
// subplan (the residual filter or the whole aggregate below the merge), and
// behind opaqueBackend, where every record crosses the k-way merge first.
func BenchmarkShardScatter(b *testing.B) {
	ctx := context.Background()
	sb := provstore.NewShardedMem(4)
	const n = 10_000
	recs := make([]provstore.Record, 0, n)
	for i := 0; i < n; i++ {
		tid, loc := int64(i/10+1), fmt.Sprintf("T/c%d/n%d", i%10, i/10)
		switch {
		case i%10 == 3:
			recs = append(recs, rec(tid, provstore.OpDelete, loc, ""))
		case i%2 == 0:
			recs = append(recs, rec(tid, provstore.OpCopy, loc, fmt.Sprintf("S/a%d", i)))
		default:
			recs = append(recs, rec(tid, provstore.OpInsert, loc, ""))
		}
	}
	if err := sb.Append(ctx, recs); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, query string }{
		{"count", "select count"},
		{"op=D", "select where op=D"},
		{"loc>=T.c7", "select where loc>=T/c7"},
	} {
		q := MustParse(c.query)
		want, err := Collect(ctx, sb, q)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []struct {
			name  string
			store provstore.Backend
		}{{"scattered", sb}, {"merged", opaqueBackend{sb}}} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Collect(ctx, s.store, q)
					if err != nil {
						b.Fatal(err)
					}
					if res.Value != want.Value || len(res.Records) != len(want.Records) {
						b.Fatalf("%q: %d records, value %d; scattered: %d, %d", c.query, len(res.Records), res.Value, len(want.Records), want.Value)
					}
				}
			})
		}
	}
}
