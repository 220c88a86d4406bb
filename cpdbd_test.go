package cpdb_test

// End-to-end equivalence of the networked deployment tier: a full CLI
// session over a live loopback cpdb:// service must be byte-identical to the
// same session over the in-process store — the acceptance bar mirrored by
// the CI integration step that boots cmd/cpdbd and diffs the outputs.

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	cpdb "repro"
	"repro/internal/figures"
	"repro/internal/provhttp"
)

// startService serves a fresh mem:// store on a loopback port and returns
// its cpdb:// DSN.
func startService(t *testing.T) string {
	t.Helper()
	inner, err := cpdb.OpenBackend("mem://")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: provhttp.NewServer(inner)}
	go hs.Serve(ln) //nolint:errcheck // reports ErrServerClosed at teardown
	t.Cleanup(func() { hs.Close() })
	return "cpdb://" + ln.Addr().String()
}

// TestCLIEquivalenceOverNetwork runs the paper's Figure 3 script with
// queries and a full provenance dump through RunCLI three ways — in-process
// mem://, over a loopback cpdb:// service, and over the service with
// client-side group-commit batching — and requires byte-identical output.
func TestCLIEquivalenceOverNetwork(t *testing.T) {
	script := filepath.Join(t.TempDir(), "fig3.cpdb")
	if err := os.WriteFile(script, []byte(figures.Script), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(backendDSN string, batch int) string {
		var out bytes.Buffer
		cfg := cpdb.CLIConfig{
			Demo:        true,
			Script:      script,
			Method:      "HT",
			CommitEvery: 5,
			Backend:     backendDSN,
			BatchSize:   batch,
			Queries:     cpdb.StringList{"hist T/c2/y", "src T/c4/y", "mod T", "trace T/c1/y"},
			Dump:        true,
		}
		if err := cpdb.RunCLI(cfg, &out); err != nil {
			t.Fatalf("RunCLI(%s): %v", backendDSN, err)
		}
		return out.String()
	}

	viaMem := run("mem://", 1)
	viaNet := run(startService(t), 1)
	if viaMem != viaNet {
		t.Errorf("cpdb:// session output differs from mem://\n--- mem ---\n%s--- cpdb ---\n%s", viaMem, viaNet)
	}
	// Client-side batching over the network: queries read through the
	// buffer, so the observable output must not change.
	viaBatched := run(startService(t), 8)
	if viaMem != viaBatched {
		t.Errorf("batched cpdb:// session output differs\n--- mem ---\n%s--- batched ---\n%s", viaMem, viaBatched)
	}
}

// TestSessionPlanSingleRoundTrip pins the declarative layer's headline
// property at the public API: a Session over cpdb:// answers a whole
// remote Trace or Mod — every chain step, every BFS wave — in exactly one
// POST /v1/query, with no scan, point or stat round trips behind it.
func TestSessionPlanSingleRoundTrip(t *testing.T) {
	inner, err := cpdb.OpenBackend("mem://")
	if err != nil {
		t.Fatal(err)
	}
	srv := provhttp.NewServer(inner)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // reports ErrServerClosed at teardown
	t.Cleanup(func() { hs.Close() })

	backend, err := cpdb.OpenBackend("cpdb://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpdb.New(cpdb.Config{
		Target:  cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{cpdb.NewMemSource("S1", figures.S1()), cpdb.NewMemSource("S2", figures.S2())},
		Method:  cpdb.HierTrans,
		Backend: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(figures.Script); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		text string
		run  func() error
	}{
		{"trace T/c1/y", func() error { _, err := s.Plan("trace T/c1/y"); return err }},
		{"mod T", func() error { _, err := s.Plan("mod T"); return err }},
		{"method Trace", func() error { _, err := s.Trace(cpdb.MustParsePath("T/c1/y")); return err }},
		{"method Mod", func() error { _, err := s.Mod(cpdb.MustParsePath("T")); return err }},
		{"select", func() error { _, err := s.Plan("select where loc>=T/c2 and op=C"); return err }},
	} {
		before := srv.Stats()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.text, err)
		}
		after := srv.Stats()
		if d := after["requests"] - before["requests"]; d != 1 {
			t.Errorf("%s cost %d round trips, want exactly 1", tc.text, d)
		}
		if d := after["endpoint.query"] - before["endpoint.query"]; d != 1 {
			t.Errorf("%s: endpoint.query delta = %d, want 1", tc.text, d)
		}
		if d := after["endpoint.stat"] - before["endpoint.stat"]; d != 0 {
			t.Errorf("%s: endpoint.stat delta = %d, want 0 (horizon resolves server-side)", tc.text, d)
		}
	}
}

// TestSessionCloseFlushesOverNetwork: a Session over cpdb:// with client-side
// batching must push everything to the service by Close, so a second session
// (a different curator) sees the records.
func TestSessionCloseFlushesOverNetwork(t *testing.T) {
	dsn := startService(t)
	backend, err := cpdb.OpenBackend(dsn)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpdb.New(cpdb.Config{
		Target:    cpdb.NewMemTarget("T", figures.T0()),
		Sources:   []cpdb.Source{cpdb.NewMemSource("S1", figures.S1()), cpdb.NewMemSource("S2", figures.S2())},
		Method:    cpdb.HierTrans,
		Backend:   backend,
		BatchSize: 64, // larger than the record count: nothing flushes on its own
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

	second, err := cpdb.OpenBackend(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer cpdb.CloseBackend(second) //nolint:errcheck // loopback teardown
	st, err := second.Stat(context.Background())
	n := st.Count
	if err != nil {
		t.Fatal(err)
	}
	if n != len(figures.Fig5d) {
		t.Fatalf("after Close, service holds %d records, want %d", n, len(figures.Fig5d))
	}
}
