package cpdb_test

// Acceptance tests of the replicated provenance store at the public
// surface: a session over replicated:// must be observably identical to one
// over the primary's scheme alone, whatever the read policy, and closing
// the session must leave every replica converged with the primary.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	cpdb "repro"
	"repro/internal/figures"
	"repro/internal/provrepl"
	"repro/internal/provstore"
)

// runReplCLI runs the paper's Figure 3 script with queries and a dump over
// the given backend DSN.
func runReplCLI(t *testing.T, backendDSN string) string {
	t.Helper()
	script := filepath.Join(t.TempDir(), "fig3.cpdb")
	if err := os.WriteFile(script, []byte(figures.Script), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := cpdb.CLIConfig{
		Demo:        true,
		Script:      script,
		Method:      "HT",
		CommitEvery: 5,
		Backend:     backendDSN,
		Queries:     cpdb.StringList{"hist T/c2/y", "src T/c4/y", "mod T", "trace T/c1/y"},
		Dump:        true,
	}
	if err := cpdb.RunCLI(cfg, &out); err != nil {
		t.Fatalf("RunCLI(%s): %v", backendDSN, err)
	}
	return out.String()
}

// TestCLIEquivalenceOverReplicated is the acceptance bar: the full CLI
// golden workload over replicated://?primary=mem://&replica=mem:// is
// byte-identical to mem://, under both read policies (fan-out reads only
// ever come from fully caught-up replicas, so even read=any changes nothing
// observable).
func TestCLIEquivalenceOverReplicated(t *testing.T) {
	want := runReplCLI(t, "mem://")
	for _, dsn := range []string{
		"replicated://?primary=mem://&replica=mem://",
		"replicated://?primary=mem://&replica=mem://&replica=mem://&read=any&poll=1ms",
	} {
		got := runReplCLI(t, dsn)
		if got != want {
			t.Errorf("%s output differs from mem://\n--- mem ---\n%s--- replicated ---\n%s", dsn, want, got)
		}
	}
}

// TestSessionCloseConvergesReplicas: Session.Close over a replicated
// backend drains the appliers, so the replicas hold exactly the primary's
// records once Close returns — the durability contract a failover target
// needs.
func TestSessionCloseConvergesReplicas(t *testing.T) {
	backend, err := cpdb.OpenBackend("replicated://?primary=mem://&replica=mem://&poll=1ms")
	if err != nil {
		t.Fatal(err)
	}
	rb := backend.(*provrepl.ReplicatedBackend)
	s, err := cpdb.New(cpdb.Config{
		Target:  cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{cpdb.NewMemSource("S1", figures.S1()), cpdb.NewMemSource("S2", figures.S2())},
		Method:  cpdb.HierTrans,
		Backend: backend,
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := provstore.CollectScan(rb.Inner().Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("primary empty after the golden workload")
	}
	got, err := provstore.CollectScan(rb.Below()[1].Scan(ctx, provstore.All()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replica after Close holds %d records, primary %d — Close did not drain", len(got), len(want))
	}
}
