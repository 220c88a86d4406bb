package provplan

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/provstore"
)

// update rewrites testdata/analyze_golden.txt. The file pins what EXPLAIN
// ANALYZE counts — which operators a plan runs, in what order, and how many
// rows each takes in and passes on — so regenerate it only for a deliberate
// change of a plan's shape, never for a refactor of the measurement.
var update = flag.Bool("update", false, "rewrite testdata/analyze_golden.txt")

// analyzeGoldenQueries covers every operator kind: access paths, filter,
// shard merge, sort, output with and without a limit, aggregate, the join's
// build and sub-plan, the ancestry steps, the Mod waves and its probe.
var analyzeGoldenQueries = []string{
	"select where loc>=T/c1",
	"select where op=C order loc-tid",
	"select limit 2",
	"select count",
	"select where tid<=3 order tid-loc desc",
	"select where loc>=T join tid (select where op=C)",
	"trace U/m",
	"hist T/c3/z",
	"src T/c1/y",
	"mod T",
}

// TestAnalyzeGolden: every query's analysis over the load fixture, on an
// unsharded and a four-shard store, counts the same rows per operator as
// when the golden file was written. Times vary from run to run and are not
// compared.
func TestAnalyzeGolden(t *testing.T) {
	stores := []struct {
		name string
		b    provstore.Backend
	}{
		{"mem", provstore.NewMemBackend()},
		{"sharded(4)", provstore.NewShardedMem(4)},
	}
	var got strings.Builder
	for _, s := range stores {
		load(t, s.b)
		for _, text := range analyzeGoldenQueries {
			q := MustParse(text)
			q.Analyze = true
			res, err := Collect(context.Background(), s.b, q)
			if err != nil {
				t.Fatalf("%s: %q: %v", s.name, text, err)
			}
			fmt.Fprintf(&got, "%s: %s: scanned %d\n", s.name, text, res.Analysis.Scanned)
			for _, op := range res.Analysis.Ops {
				fmt.Fprintf(&got, "  %s in %d out %d\n", op.Op, op.In, op.Out)
			}
		}
	}
	const file = "testdata/analyze_golden.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden file has %d", len(gl), len(wl))
	}
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
}
