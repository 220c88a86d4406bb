package provplan

import (
	"context"
	"strings"
	"testing"

	"repro/internal/provstore"
)

// opMap indexes an Analysis by operator name.
func opMap(t *testing.T, az *Analysis) map[string]OpStat {
	t.Helper()
	if az == nil {
		t.Fatal("nil Analysis")
	}
	m := make(map[string]OpStat, len(az.Ops))
	for _, op := range az.Ops {
		if _, dup := m[op.Op]; dup {
			t.Fatalf("duplicate operator %q in analysis", op.Op)
		}
		m[op.Op] = op
	}
	return m
}

func findOp(t *testing.T, m map[string]OpStat, prefix string) OpStat {
	t.Helper()
	for name, op := range m {
		if strings.HasPrefix(name, prefix) {
			return op
		}
	}
	t.Fatalf("no operator with prefix %q in %v", prefix, m)
	return OpStat{}
}

func TestAnalyzeSelect(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)

	q := MustParse("select where loc>=T/c1")
	q.Analyze = true
	res, err := Collect(context.Background(), b, q)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	m := opMap(t, res.Analysis)

	access := findOp(t, m, "access:")
	filter := m["filter"]
	output := m["output"]
	if access.Out != filter.In {
		t.Errorf("access out %d != filter in %d", access.Out, filter.In)
	}
	if filter.Out != output.In {
		t.Errorf("filter out %d != output in %d", filter.Out, output.In)
	}
	if output.Out != int64(len(res.Records)) {
		t.Errorf("output out %d != %d records", output.Out, len(res.Records))
	}
	if res.Analysis.Scanned == 0 {
		t.Error("scanned = 0 for a non-empty select")
	}
}

func TestAnalyzeOffByDefault(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)

	res, err := Collect(context.Background(), b, MustParse("select where loc>=T"))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if res.Analysis != nil {
		t.Fatalf("Analysis = %+v without Analyze", res.Analysis)
	}

	// The row stream must not carry an analyze trailer either.
	pl, err := Compile(b, MustParse("select where loc>=T"))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for row, err := range pl.Rows(context.Background()) {
		if err != nil {
			t.Fatalf("Rows: %v", err)
		}
		if row.Kind == RowAnalyze {
			t.Fatal("RowAnalyze emitted without Analyze")
		}
	}
}

func TestAnalyzeRowsTrailer(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)

	q := MustParse("select where op=i,c")
	q.Analyze = true
	pl, err := Compile(b, q)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var kinds []RowKind
	for row, err := range pl.Rows(context.Background()) {
		if err != nil {
			t.Fatalf("Rows: %v", err)
		}
		kinds = append(kinds, row.Kind)
	}
	if len(kinds) < 2 {
		t.Fatalf("got %d rows, want data rows plus trailer", len(kinds))
	}
	if kinds[len(kinds)-1] != RowAnalyze {
		t.Fatalf("last row kind = %v, want RowAnalyze", kinds[len(kinds)-1])
	}
	for _, k := range kinds[:len(kinds)-1] {
		if k == RowAnalyze {
			t.Fatal("RowAnalyze before end of stream")
		}
	}
}

func TestAnalyzeAggregate(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)

	q := MustParse("select count where loc>=T")
	q.Analyze = true
	res, err := Collect(context.Background(), b, q)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	m := opMap(t, res.Analysis)
	agg := findOp(t, m, "agg:")
	if agg.Out != 1 {
		t.Errorf("agg out = %d, want 1", agg.Out)
	}
	if agg.In != res.Value {
		t.Errorf("agg in = %d, want count value %d", agg.In, res.Value)
	}
}

func TestAnalyzeTraceSteps(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)

	q := MustParse("trace U/m")
	q.Analyze = true
	res, err := Collect(context.Background(), b, q)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(res.Trace.Events) == 0 {
		t.Fatal("empty trace")
	}
	m := opMap(t, res.Analysis)
	// Ancestry chain steps accumulate under the step: prefix.
	findOp(t, m, "step:")
	if res.Analysis.Scanned == 0 {
		t.Error("scanned = 0 for a trace")
	}
}

func TestAnalyzeJoinSub(t *testing.T) {
	b := provstore.NewMemBackend()
	load(t, b)

	q := MustParse("select where loc>=T join tid (select where op=c)")
	q.Analyze = true
	res, err := Collect(context.Background(), b, q)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	m := opMap(t, res.Analysis)
	jb := m["join-build"]
	if jb.In == 0 {
		t.Error("join-build saw no sub-plan rows")
	}
	// The subquery's own operators run under the sub: prefix.
	findOp(t, m, "sub:access:")
}

// Analyze is an execution flag, not query syntax: the canonical text form
// must not change, and the JSON wire form must carry it.
func TestAnalyzeNotInCanonicalForm(t *testing.T) {
	q := MustParse("select where loc>=T limit 3")
	plain := q.String()
	q.Analyze = true
	if got := q.String(); got != plain {
		t.Fatalf("String() changed with Analyze: %q vs %q", got, plain)
	}
	back, err := Parse(q.String())
	if err != nil {
		t.Fatalf("Parse(String()): %v", err)
	}
	if back.Analyze {
		t.Fatal("Analyze survived a text round trip; it must be wire-only")
	}
}
