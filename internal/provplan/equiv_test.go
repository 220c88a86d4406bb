package provplan_test

// Cross-backend equivalence properties for the declarative layer, driven by
// the paper's own workload generator instead of hand-picked fixtures: a
// seeded §4.1 update mix is editor-applied over every backend shape, then
// every provenance question is answered twice — plan-compiled and through
// the legacy client-orchestrated code path — and the answers must be
// identical record for record. The same plans must also agree across all
// backends, pinning the remote and replicated stores to the in-memory
// reference. This is the external-package twin of plan_test.go's
// brute-force checks: that file proves plans against a naive evaluator on
// the mem shapes; this one proves plan-vs-legacy and backend-vs-backend on
// the full zoo, relational and networked stores included.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/path"
	"repro/internal/provhttp"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"

	_ "repro/internal/provrepl" // registers the replicated:// driver
	_ "repro/internal/relprov"  // registers the rel:// driver
)

const (
	equivSeed = 42
	equivOps  = 160
)

// equivSequence generates the seeded update workload once; every backend
// replays the identical sequence, so their stores hold identical records.
func equivSequence(t *testing.T) update.Sequence {
	t.Helper()
	gen := workload.New(workload.Config{
		Pattern:    workload.Mix,
		Deletion:   workload.DelMix,
		Seed:       equivSeed,
		TargetName: "MiMI",
		SourceName: "OrganelleDB",
	}, equivTarget(), equivSource())
	return gen.Sequence(equivOps)
}

func equivTarget() *tree.Node {
	return dataset.GenMiMI(dataset.MiMIConfig{Entries: 12, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 7})
}

func equivSource() *tree.Node {
	return dataset.GenOrganelleTree(dataset.OrganelleConfig{Proteins: 12, Seed: 8})
}

// equivBackendOpeners lists every backend shape under test: the in-memory
// reference, sharding, client-side batching, the file-backed relational
// store, the cpdb:// network client, and the replicated composite.
func equivBackendOpeners() map[string]func(t *testing.T) provstore.Backend {
	openDSN := func(dsn string) func(t *testing.T) provstore.Backend {
		return func(t *testing.T) provstore.Backend {
			b, err := provstore.OpenDSN(dsn)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // test teardown
			return b
		}
	}
	return map[string]func(t *testing.T) provstore.Backend{
		"mem":      openDSN("mem://"),
		"sharded":  openDSN("mem://?shards=4"),
		"batching": func(t *testing.T) provstore.Backend { return provstore.NewBatching(provstore.NewMemBackend(), 8) },
		"rel": func(t *testing.T) provstore.Backend {
			return openDSN("rel://" + filepath.Join(t.TempDir(), "prov.rel") + "?create=1")(t)
		},
		"cpdb": func(t *testing.T) provstore.Backend {
			hs := httptest.NewServer(provhttp.NewServer(provstore.NewMemBackend()))
			t.Cleanup(hs.Close)
			return openDSN("cpdb://" + hs.Listener.Addr().String())(t)
		},
		"replicated": openDSN("replicated://?primary=mem://&replica=mem://&read=any"),
	}
}

// loadEquivWorkload replays the seeded workload into the backend through a
// real provenance-tracked editor (HierTrans, auto-commit every 5 ops, as in
// the experiments) and returns the query engine over the store.
func loadEquivWorkload(t *testing.T, b provstore.Backend, seq update.Sequence) ancestry {
	t.Helper()
	ed, err := core.NewEditor(core.Config{
		Target:          wrapper.NewXMLTarget(xmlstore.NewMem("MiMI", equivTarget())),
		Sources:         []wrapper.Source{wrapper.NewXMLTarget(xmlstore.NewMem("OrganelleDB", equivSource()))},
		Tracker:         provstore.MustNew(provstore.HierTrans, provstore.Config{Backend: b}),
		AutoCommitEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ed.ApplySequence(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := ed.Commit(); err != nil && !errors.Is(err, provstore.ErrNoTxn) {
		t.Fatal(err)
	}
	return ancestry{b}
}

// equivProbePaths derives the query targets from the store itself: a
// deterministic sample of stored locations and sources, their parents, and
// a few locations that were never touched.
func equivProbePaths(t *testing.T, b provstore.Backend) []path.Path {
	t.Helper()
	recs, err := provstore.CollectScan(b.Scan(context.Background(), provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]path.Path{}
	for _, r := range recs {
		seen[r.Loc.String()] = r.Loc
		if p, err := r.Loc.Parent(); err == nil && !p.IsRoot() {
			seen[p.String()] = p
		}
		if r.Src.Len() > 0 {
			seen[r.Src.String()] = r.Src
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	// Every k-th location keeps the probe count bounded while the seed
	// varies which ones; plus paths no transaction ever touched.
	stride := max(1, len(keys)/24)
	var out []path.Path
	for i := 0; i < len(keys); i += stride {
		out = append(out, seen[keys[i]])
	}
	for _, absent := range []string{"MiMI", "MiMI/never/was", "Elsewhere/x"} {
		out = append(out, path.MustParse(absent))
	}
	return out
}

// TestPlanLegacyEquivalence is the headline property: on every backend
// shape, for a seeded editor workload, the plan-compiled Trace, Src, Hist
// and Mod answers are identical to the legacy client-orchestrated ones —
// at the present horizon and at a historical one.
func TestPlanLegacyEquivalence(t *testing.T) {
	seq := equivSequence(t)
	for name, open := range equivBackendOpeners() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			e := loadEquivWorkload(t, open(t), seq)
			maxTid := e.maxTid(t)
			if maxTid < 4 {
				t.Fatalf("workload produced only %d transactions", maxTid)
			}
			probes := equivProbePaths(t, e.b)
			if len(probes) < 10 {
				t.Fatalf("only %d probe paths", len(probes))
			}
			// Probing a path that was deleted by the horizon is a legitimate
			// question with a defined error answer ("trace reached deleted
			// data"); equivalence then means both sides return that same
			// error.
			// A remote backend prefixes the same message with its transport
			// wrapper ("provhttp: server error (HTTP 500): …"), so compare
			// by suffix.
			sameErr := func(what string, p path.Path, horizon int64, err1, err2 error) bool {
				t.Helper()
				switch {
				case (err1 == nil) != (err2 == nil):
					t.Errorf("%s(%s, %d): plan err %v, legacy err %v", what, p, horizon, err1, err2)
				case err1 != nil && !strings.HasSuffix(err1.Error(), err2.Error()) && !strings.HasSuffix(err2.Error(), err1.Error()):
					t.Errorf("%s(%s, %d): plan err %v, legacy err %v", what, p, horizon, err1, err2)
				}
				return err1 == nil && err2 == nil
			}
			for _, horizon := range []int64{maxTid, maxTid / 2} {
				for _, p := range probes {
					got, err1 := e.run(ctx, provplan.OpTrace, p, horizon)
					wantTr, err2 := legacyTrace(ctx, e.b, p, horizon)
					if sameErr("Trace", p, horizon, err1, err2) && !reflect.DeepEqual(got.Trace, wantTr) {
						t.Errorf("Trace(%s, %d):\nplan   %+v\nlegacy %+v", p, horizon, got.Trace, wantTr)
					}

					got, err1 = e.run(ctx, provplan.OpSrc, p, horizon)
					wantTid, wantOK, err2 := legacySrc(ctx, e.b, p, horizon)
					if sameErr("Src", p, horizon, err1, err2) && (got.Value != wantTid || got.Found != wantOK) {
						t.Errorf("Src(%s, %d): plan (%d, %v), legacy (%d, %v)", p, horizon, got.Value, got.Found, wantTid, wantOK)
					}

					got, err1 = e.run(ctx, provplan.OpHist, p, horizon)
					wantHist, err2 := legacyHist(ctx, e.b, p, horizon)
					if sameErr("Hist", p, horizon, err1, err2) && fmt.Sprint(got.Tids) != fmt.Sprint(wantHist) {
						t.Errorf("Hist(%s, %d): plan %v, legacy %v", p, horizon, got.Tids, wantHist)
					}

					got, err1 = e.run(ctx, provplan.OpMod, p, horizon)
					wantMod, err2 := legacyMod(ctx, e.b, p, horizon)
					if sameErr("Mod", p, horizon, err1, err2) && fmt.Sprint(got.Tids) != fmt.Sprint(wantMod) {
						t.Errorf("Mod(%s, %d): plan %v, legacy %v", p, horizon, got.Tids, wantMod)
					}
				}
			}
		})
	}
}

// TestSelectPlansAgreeAcrossBackends runs a spread of declarative queries
// on every backend over the identical workload and requires each answer to
// match the in-memory reference exactly — rows, aggregates, scan results
// and all.
func TestSelectPlansAgreeAcrossBackends(t *testing.T) {
	queries := []string{
		"select",
		"select where op=C",
		"select where op=I,D order loc-tid",
		"select where loc>=MiMI limit 25",
		"select where tid=2..6 and src>=OrganelleDB",
		"select count where op=D",
		"select min-tid where op=C",
		"select max-tid",
		"select where tid>=3 join src-loc (select where op=C) order tid-loc desc limit 40",
	}
	seq := equivSequence(t)
	ctx := context.Background()

	reference := map[string]*provplan.Result{}
	openers := equivBackendOpeners()
	refEngine := loadEquivWorkload(t, openers["mem"](t), seq)
	for _, text := range queries {
		res, err := provplan.Collect(ctx, refEngine.b, provplan.MustParse(text))
		if err != nil {
			t.Fatalf("mem: %s: %v", text, err)
		}
		reference[text] = res
	}

	for name, open := range openers {
		if name == "mem" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			e := loadEquivWorkload(t, open(t), seq)
			for _, text := range queries {
				res, err := provplan.Collect(ctx, e.b, provplan.MustParse(text))
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				if !reflect.DeepEqual(res, reference[text]) {
					t.Errorf("%s:\n%s   %+v\nmem  %+v", text, name, res, reference[text])
				}
			}
		})
	}
}
