package main

import (
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The benchmark must survive the refactors it is there to judge, so it may
// reach into the repo only for its input generators.
func TestImportGuard(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"repro/internal/dataset": true, "repro/internal/workload": true}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(path, "repro/internal/") && !allowed[path] {
					t.Errorf("%s imports %s; only internal/dataset and internal/workload are allowed", name, path)
				}
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuick runs every workload, one traced run and the ladder at -quick
// scale and holds the output against BENCHMARK.json: the checks pass, and
// every declared metric is there, once, with its unit, and nothing else.
func TestQuick(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(endToEnd) != len(sp.EndToEnd) || len(perLayer) != len(sp.PerLayer) {
		t.Error("BENCHMARK.json names a metric twice")
	}
	if _, ok := endToEnd["setup_s"]; !ok {
		t.Error("BENCHMARK.json has no setup_s")
	}
	for name := range endToEnd {
		if !metricName.MatchString(name) {
			t.Errorf("end-to-end metric name %q", name)
		}
	}
	for name := range perLayer {
		if !metricName.MatchString(name) {
			t.Errorf("per-layer metric name %q", name)
		}
	}
	if testing.Short() {
		t.Skip("-short: not starting daemons")
	}

	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	check := func(label string, res result, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", label, name)
			} else if got.Unit != unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, got.Unit, unit)
			}
		}
		for name := range res.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
			}
		}
	}
	o := options{seed: 2006, seconds: 1, quick: true}
	for _, name := range workloadNames {
		res, err := runWorkload(e, name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, res, endToEnd)
	}
	o.trace = true
	res, err := runWorkload(e, "curate", o)
	if err != nil {
		t.Fatalf("traced curate: %v", err)
	}
	check("traced curate", res, perLayer)
}
