package cpdb_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	cpdb "repro"
	"repro/internal/figures"
	"repro/internal/provplan"
)

func planSession(t *testing.T) *cpdb.Session {
	t.Helper()
	s, err := cpdb.New(cpdb.Config{
		Target:  cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{cpdb.NewMemSource("S1", figures.S1()), cpdb.NewMemSource("S2", figures.S2())},
		Method:  cpdb.HierTrans,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(figures.Script); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionPlanKinds drives each query kind through the public Plan
// surface and cross-checks against the classic methods.
func TestSessionPlanKinds(t *testing.T) {
	s := planSession(t)

	res, err := s.Plan("select count")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.RecordCount()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != int64(n) {
		t.Errorf("select count = %d, RecordCount = %d", res.Value, n)
	}

	res, err = s.Plan("trace T/c1/y")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace(cpdb.MustParsePath("T/c1/y"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Origin != tr.Origin || len(res.Trace.Events) != len(tr.Events) {
		t.Errorf("plan trace %+v != method trace %+v", res.Trace, tr)
	}

	res, err = s.Plan("mod T")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := s.Mod(cpdb.MustParsePath("T"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tids) != len(mod) {
		t.Errorf("plan mod %v != method mod %v", res.Tids, mod)
	}
}

// TestQueryPlanAsOfPinning: a handle's AsOf horizon applies to plan queries
// that do not carry their own bound — selects get tid<=asof, ancestry kinds
// get asof — while explicit bounds in the text win.
func TestQueryPlanAsOfPinning(t *testing.T) {
	s := planSession(t)
	ctx := context.Background()

	want := 0
	for r, err := range s.Query().Records(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if r.Tid <= 2 {
			want++
		}
	}
	res, err := s.Query(cpdb.AsOf(2)).Plan("select count")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != int64(want) {
		t.Errorf("AsOf(2) select count = %d, want %d", res.Value, want)
	}

	// An explicit bound in the text wins over the handle's horizon.
	res, err = s.Query(cpdb.AsOf(1)).Plan("select count where tid<=2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != int64(want) {
		t.Errorf("explicit tid<=2 under AsOf(1) counted %d, want %d", res.Value, want)
	}

	// Ancestry kinds: AsOf pins the trace horizon exactly like the classic
	// method under the same option.
	p := cpdb.MustParsePath("T/c1/y")
	for asOf := int64(1); asOf <= 5; asOf++ {
		viaPlan, err := s.Query(cpdb.AsOf(asOf)).Plan("hist " + p.String())
		if err != nil {
			t.Fatal(err)
		}
		viaMethod, err := s.Query(cpdb.AsOf(asOf)).Hist(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaPlan.Tids) != len(viaMethod) {
			t.Errorf("asof %d: plan hist %v != method hist %v", asOf, viaPlan.Tids, viaMethod)
		}
	}
}

// TestQueryPlanRowsMatchesPlan: PlanRows streams exactly the rows Plan
// collects, over an in-process and a remote store, with and without an AsOf
// horizon. The script ends with a copy out of T/c1/y, so under a horizon
// before it a loc-src join must bound its sub-select too (pinSelect) and
// leave T/c1/y's own record out. A parse error is the stream's first and
// only element.
func TestQueryPlanRowsMatchesPlan(t *testing.T) {
	const lastTid = figures.FirstTid + 10 // the copy out of T/c1/y
	queries := []string{
		"select",
		"select where loc>=T/c2 and op=C order loc-tid",
		"select join loc-src (select where op=C)",
		"select count",
		"trace T/c1/y",
		"hist T/c1/y",
		"mod T",
		"src T/c4/y",
	}
	for _, dsn := range []string{"mem://", startService(t)} {
		t.Run(strings.SplitN(dsn, ":", 2)[0], func(t *testing.T) {
			s, err := cpdb.New(cpdb.Config{
				Target:          cpdb.NewMemTarget("T", figures.T0()),
				Sources:         []cpdb.Source{cpdb.NewMemSource("S1", figures.S1()), cpdb.NewMemSource("S2", figures.S2())},
				Method:          cpdb.Naive,
				Backend:         openBackend(t, dsn),
				StartTid:        figures.FirstTid,
				AutoCommitEvery: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Run(figures.Script + "(11) copy T/c1/y into T/c9;"); err != nil {
				t.Fatal(err)
			}
			for _, asOf := range []int64{0, lastTid - 1} {
				q := s.Query(cpdb.AsOf(asOf))
				for _, text := range queries {
					want, err := q.Plan(text)
					if err != nil {
						t.Fatalf("asof %d: Plan(%q): %v", asOf, text, err)
					}
					got, err := provplan.CollectRows(q.PlanRows(text))
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("asof %d: PlanRows(%q) = %+v, %v; Plan = %+v", asOf, text, got, err, want)
					}
				}
			}

			pinned, err := provplan.CollectRows(s.Query(cpdb.AsOf(lastTid - 1)).PlanRows("select join loc-src (select where op=C)"))
			if err != nil {
				t.Fatal(err)
			}
			bounded := func(sub string) []cpdb.Record {
				res, err := s.Plan(fmt.Sprintf("select where tid<=%d join loc-src (select where %sop=C)", lastTid-1, sub))
				if err != nil {
					t.Fatal(err)
				}
				return res.Records
			}
			want := bounded(fmt.Sprintf("tid<=%d and ", lastTid-1))
			if unpinnedSub := bounded(""); len(unpinnedSub) <= len(want) {
				t.Fatalf("the join's sub-select bound changes nothing (%v): the case does not exercise it", unpinnedSub)
			}
			if !reflect.DeepEqual(pinned.Records, want) {
				t.Errorf("AsOf(%d) join = %v, want the sub-select bounded too: %v", lastTid-1, pinned.Records, want)
			}

			n := 0
			for _, err := range s.Query().PlanRows("select where bogus") {
				if n++; err == nil || n > 1 {
					t.Fatalf("parse error stream: element %d has error %v, want one element carrying the parse error", n, err)
				}
			}
			if n != 1 {
				t.Fatalf("parse error stream yielded %d elements, want 1", n)
			}
		})
	}
}

// TestCLIPlanVerb: the -query "plan …" verb parses, runs and prints a
// declarative query alongside the classic verbs.
func TestCLIPlanVerb(t *testing.T) {
	var out bytes.Buffer
	cfg := cpdb.CLIConfig{
		Demo:        true,
		Script:      writeTempScript(t),
		Method:      "HT",
		CommitEvery: 5,
		Queries: cpdb.StringList{
			"plan select count",
			"plan select where op=C order loc-tid limit 3",
			"plan trace T/c1",
		},
	}
	if err := cpdb.RunCLI(cfg, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"plan select count:", "plan select where op=C order loc-tid limit 3:", "plan trace T/c1:", "origin:"} {
		if !strings.Contains(text, want) {
			t.Errorf("CLI output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "(0 records)") {
		t.Errorf("plan select matched nothing:\n%s", text)
	}
}

func writeTempScript(t *testing.T) string {
	t.Helper()
	f := t.TempDir() + "/fig3.cpdb"
	if err := os.WriteFile(f, []byte(figures.Script), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}
