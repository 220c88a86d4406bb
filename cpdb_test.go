package cpdb_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cpdb "repro"

	"repro/internal/figures"
	"repro/internal/tree"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func marshalXML(name string, n *cpdb.Node) ([]byte, error) {
	return tree.MarshalXML(name, n)
}

func figureSession(t *testing.T, m cpdb.Method) *cpdb.Session {
	t.Helper()
	s, err := cpdb.New(cpdb.Config{
		Target: cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{
			cpdb.NewMemSource("S1", figures.S1()),
			cpdb.NewMemSource("S2", figures.S2()),
		},
		Method:   m,
		StartTid: figures.FirstTid,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := cpdb.New(cpdb.Config{}); err == nil {
		t.Error("missing target should error")
	}
}

func TestSessionEndToEnd(t *testing.T) {
	for _, m := range []cpdb.Method{cpdb.Naive, cpdb.Hierarchical, cpdb.Transactional, cpdb.HierTrans} {
		s := figureSession(t, m)
		if s.Method() != m || s.TargetName() != "T" {
			t.Error("identity wrong")
		}
		if err := s.Run(figures.Script); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if !s.View().Equal(figures.TPrime()) {
			t.Errorf("%v: view != T'", m)
		}
		n, err := s.RecordCount()
		if err != nil || n == 0 {
			t.Fatalf("%v: records = %d, %v", m, n, err)
		}
		b, err := s.RecordBytes()
		if err != nil || b <= 0 {
			t.Fatalf("%v: bytes = %d, %v", m, b, err)
		}
		recs, err := s.Records()
		if err != nil || len(recs) != n {
			t.Fatalf("%v: Records len %d vs count %d", m, len(recs), n)
		}
		if s.TotalOps() != 10 {
			t.Errorf("%v: TotalOps = %d", m, s.TotalOps())
		}
	}
}

// TestShardedSessionEquivalence: any sharded-backend/BatchSize configuration
// stores exactly the provenance table of the default single-store
// write-through session — the paper's semantics are invariant under the
// scaling knobs.
func TestShardedSessionEquivalence(t *testing.T) {
	table := func(cfgTweak func(*cpdb.Config)) []string {
		t.Helper()
		cfg := cpdb.Config{
			Target: cpdb.NewMemTarget("T", figures.T0()),
			Sources: []cpdb.Source{
				cpdb.NewMemSource("S1", figures.S1()),
				cpdb.NewMemSource("S2", figures.S2()),
			},
			Method:          cpdb.HierTrans,
			StartTid:        figures.FirstTid,
			AutoCommitEvery: 3,
		}
		cfgTweak(&cfg)
		s, err := cpdb.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(figures.Script); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := s.Records()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = r.String()
		}
		return out
	}
	want := table(func(*cpdb.Config) {})
	cases := map[string]func(*cpdb.Config){
		"explicit-1-1": func(c *cpdb.Config) { c.Backend, c.BatchSize = openBackend(t, "mem://?shards=1"), 1 },
		"sharded":      func(c *cpdb.Config) { c.Backend = openBackend(t, "mem://?shards=4") },
		"batched":      func(c *cpdb.Config) { c.BatchSize = 16 },
		"sharded-batched": func(c *cpdb.Config) {
			c.Backend, c.BatchSize = openBackend(t, "mem://?shards=4"), 16
		},
		"sharded-dsn": func(c *cpdb.Config) {
			c.Backend = openBackend(t, "sharded://?shard=mem://&shard=mem://&shard=mem://")
		},
	}
	for name, tweak := range cases {
		got := table(tweak)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: records diverge:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestNewShardedBackendOverRel: NewShardedBackend composes two opened rel://
// stores, which no DSN names, into a store that answers the Figure 3
// script's trace and mod queries exactly like mem://?shards=2.
func TestNewShardedBackendOverRel(t *testing.T) {
	dir := t.TempDir()
	composed, err := cpdb.NewShardedBackend(
		openBackend(t, "rel://"+filepath.Join(dir, "a.rel")+"?create=1"),
		openBackend(t, "rel://"+filepath.Join(dir, "b.rel")+"?create=1"),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, want := sessionOver(t, composed, 0), sessionOver(t, openBackend(t, "mem://?shards=2"), 0)
	defer got.Close()
	defer want.Close()
	for _, loc := range []string{"T", "T/c1", "T/c1/y", "T/c2", "T/c2/y", "T/c3/x", "T/c4/y"} {
		p := cpdb.MustParsePath(loc)
		for _, verb := range []string{"trace", "mod"} {
			answer := func(s *cpdb.Session) string {
				var v any
				var err error
				if verb == "trace" {
					v, err = s.Trace(p)
				} else {
					v, err = s.Mod(p)
				}
				if err != nil {
					t.Fatalf("%s %s: %v", verb, loc, err)
				}
				return fmt.Sprintf("%+v", v)
			}
			if g, w := answer(got), answer(want); g != w {
				t.Errorf("%s %s over two rel:// shards = %s, mem://?shards=2 = %s", verb, loc, g, w)
			}
		}
	}
}

// openBackend opens dsn, failing the test on error.
func openBackend(t *testing.T, dsn string) cpdb.Backend {
	t.Helper()
	b, err := cpdb.OpenBackend(dsn)
	if err != nil {
		t.Fatalf("OpenBackend(%q): %v", dsn, err)
	}
	return b
}

// TestDurableRelBackend: the group-committing relational backend persists
// and reopens.
func TestDurableRelBackend(t *testing.T) {
	file := filepath.Join(t.TempDir(), "p.rel")
	b, err := cpdb.OpenBackend("rel://" + file + "?create=1&durable=1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpdb.New(cpdb.Config{
		Target:    cpdb.NewMemTarget("T", figures.T0()),
		Sources:   []cpdb.Source{cpdb.NewMemSource("S1", figures.S1()), cpdb.NewMemSource("S2", figures.S2())},
		Method:    cpdb.HierTrans,
		Backend:   b,
		BatchSize: 4,
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
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := s.RecordCount()
	if err != nil || n == 0 {
		t.Fatalf("records = %d, %v", n, err)
	}
	if _, err := os.Stat(file + ".wal"); err != nil {
		t.Errorf("missing WAL file: %v", err)
	}
	// Reopen through the recovery path and keep working durably.
	if closer, ok := b.(io.Closer); ok {
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Fatal("durable backend should be closeable")
	}
	b2, err := cpdb.OpenBackend("rel://" + file + "?durable=1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.(io.Closer).Close()
	st, err := b2.Stat(context.Background())
	n2 := st.Count
	if err != nil || n2 != n {
		t.Fatalf("reopened count = %d, %v; want %d", n2, err, n)
	}
}

func TestSessionSingleOps(t *testing.T) {
	s := figureSession(t, cpdb.HierTrans)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(cpdb.MustParsePath("T"), "c9", cpdb.NewLeaf("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyPaste(cpdb.MustParsePath("S1/a1"), cpdb.MustParsePath("T/pasted")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(cpdb.MustParsePath("T/c5")); err != nil {
		t.Fatal(err)
	}
	tid, err := s.Commit()
	if err != nil || tid != figures.FirstTid {
		t.Fatalf("Commit = %d, %v", tid, err)
	}
	v := s.View()
	if !v.HasChild("c9") || !v.HasChild("pasted") || v.HasChild("c5") {
		t.Errorf("ops lost: %s", v)
	}
	// Bad script surfaces a parse error.
	if err := s.Run("gibberish"); err == nil {
		t.Error("bad script should error")
	}
}

func TestSessionQueries(t *testing.T) {
	s := figureSession(t, cpdb.Naive)
	// One txn per op to match the Figure 5(a) numbering: run op by op.
	for _, line := range strings.Split(strings.TrimSpace(figures.Script), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if err := s.Run(line); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tid, ok, err := s.Src(cpdb.MustParsePath("T/c4/y"))
	if err != nil || !ok || tid != 130 {
		t.Errorf("Src = %d, %v, %v", tid, ok, err)
	}
	hist, err := s.Hist(cpdb.MustParsePath("T/c2/y"))
	if err != nil || fmt.Sprint(hist) != "[126]" {
		t.Errorf("Hist = %v, %v", hist, err)
	}
	mod, err := s.Mod(cpdb.MustParsePath("T/c2"))
	if err != nil || fmt.Sprint(mod) != "[124 126]" {
		t.Errorf("Mod = %v, %v", mod, err)
	}
	tr, err := s.Trace(cpdb.MustParsePath("T/c3/x"))
	if err != nil || tr.Origin != cpdb.OriginExternal || tr.External.String() != "S1/a3/x" {
		t.Errorf("Trace = %+v, %v", tr, err)
	}
}

func TestRelBackendSession(t *testing.T) {
	file := filepath.Join(t.TempDir(), "prov.rel")
	backend, err := cpdb.OpenBackend("rel://" + file + "?create=1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpdb.New(cpdb.Config{
		Target:  cpdb.NewMemTarget("T", figures.T0()),
		Sources: []cpdb.Source{cpdb.NewMemSource("S1", figures.S1())},
		Method:  cpdb.HierTrans,
		Backend: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(`copy S1/a1 into T/got`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	n, _ := s.RecordCount()
	if n != 1 {
		t.Errorf("rel-backed records = %d", n)
	}
	// Reopen the store read path.
	if _, err := cpdb.OpenBackend("rel://" + file); err == nil {
		// The first handle still owns the file; either outcome is
		// acceptable as long as it does not panic. Creating over a bad
		// path must fail though.
	}
	if _, err := cpdb.OpenBackend("rel://" + filepath.Join(t.TempDir(), "no", "such", "dir", "x.rel") + "?create=1"); err == nil {
		t.Error("create in missing dir should fail")
	}
	if _, err := cpdb.OpenBackend("rel://" + filepath.Join(t.TempDir(), "missing.rel")); err == nil {
		t.Error("open missing should fail")
	}
}

func TestFileTarget(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.xdb")
	tgt, err := cpdb.OpenFileTarget("T", file, figures.T0())
	if err != nil {
		t.Fatal(err)
	}
	s, err := cpdb.New(cpdb.Config{Target: tgt, Method: cpdb.Naive})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(`insert {fresh : 1} into T`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if !s.View().HasChild("fresh") {
		t.Error("insert lost")
	}
}

func TestFederationAPI(t *testing.T) {
	a := figureSession(t, cpdb.Naive)
	if err := a.Run(`copy S1/a1 into T/x`); err != nil {
		t.Fatal(err)
	}
	a.Commit()
	fed := cpdb.NewFederation()
	cpdb.RegisterProvenance(fed, a)
	steps, err := fed.Own(context.Background(), cpdb.MustParsePath("T/x/y"))
	if err != nil || len(steps) != 2 {
		t.Fatalf("Own = %+v, %v", steps, err)
	}
	if steps[1].DB != "S1" {
		t.Errorf("chain should end at S1: %+v", steps)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := cpdb.ParsePath("a//b"); err == nil {
		t.Error("bad path parsed")
	}
	p, err := cpdb.ParsePath("T/a")
	if err != nil || p.String() != "T/a" {
		t.Error("ParsePath wrong")
	}
	if _, err := cpdb.ParseMethod("Z"); err == nil {
		t.Error("bad method parsed")
	}
	seq, err := cpdb.ParseScript("copy A/b into T/c")
	if err != nil || len(seq) != 1 {
		t.Error("ParseScript wrong")
	}
	if cpdb.NewTree().Size() != 1 || cpdb.BuildTree(cpdb.M{"a": 1}).Size() != 2 {
		t.Error("tree helpers wrong")
	}
	if openBackend(t, "mem://") == nil {
		t.Error("backend helper wrong")
	}
}

func TestCLIDemo(t *testing.T) {
	var out strings.Builder
	cfg := cpdb.CLIConfig{
		Demo:        true,
		Script:      "-", // unused: no stdin in tests; use empty script instead
		Method:      "HT",
		CommitEvery: 5,
	}
	cfg.Script = ""
	cfg.Queries = cpdb.StringList{"hist T/c1", "mod T", "src T/c1", "trace T/c1"}
	if err := cpdb.RunCLI(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hist T/c1") {
		t.Errorf("output missing query results:\n%s", out.String())
	}
}

func TestCLIScriptAndDump(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.cpdb")
	writeFile(t, script, figures.Script)
	var out strings.Builder
	cfg := cpdb.CLIConfig{
		Demo:        true,
		Script:      script,
		Method:      "N",
		CommitEvery: 1,
		Dump:        true,
		Queries:     cpdb.StringList{"hist T/c2/y"},
	}
	if err := cpdb.RunCLI(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Sessions start at tid 1 by default, so Figure 5(a)'s txn 126 is 6.
	for _, want := range []string{"applied 10 operations", "6 C T/c2/y S2/b3/y", "hist T/c2/y: copied by txns [6]"} {
		if !strings.Contains(s, want) {
			t.Errorf("CLI output missing %q:\n%s", want, s)
		}
	}
}

func TestCLIFiles(t *testing.T) {
	dir := t.TempDir()
	// Export the fixture databases as XML files.
	writeXML := func(name string, n *cpdb.Node) string {
		t.Helper()
		data, err := marshalXML(name, n)
		if err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, name+".xml")
		writeFile(t, f, string(data))
		return f
	}
	tf := writeXML("T", figures.T0())
	sf := writeXML("S1", figures.S1())
	script := filepath.Join(dir, "s.cpdb")
	writeFile(t, script, "copy S1/a2 into T/got")

	var out strings.Builder
	cfg := cpdb.CLIConfig{
		TargetSpec:  "T=" + tf,
		SourceSpecs: cpdb.StringList{"S1=" + sf},
		Script:      script,
		Method:      "HT",
		Dump:        true,
	}
	if err := cpdb.RunCLI(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "got") {
		t.Errorf("CLI file mode output:\n%s", out.String())
	}
}

func TestCLIErrors(t *testing.T) {
	var out strings.Builder
	if err := cpdb.RunCLI(cpdb.CLIConfig{Method: "HT"}, &out); err == nil {
		t.Error("missing target should error")
	}
	if err := cpdb.RunCLI(cpdb.CLIConfig{Demo: true, Method: "nope"}, &out); err == nil {
		t.Error("bad method should error")
	}
	if err := cpdb.RunCLI(cpdb.CLIConfig{Demo: true, Method: "N", Queries: cpdb.StringList{"bogus"}}, &out); err == nil {
		t.Error("bad query should error")
	}
	if err := cpdb.RunCLI(cpdb.CLIConfig{Demo: true, Method: "N", Queries: cpdb.StringList{"frob T/x"}}, &out); err == nil {
		t.Error("unknown query kind should error")
	}
	if err := cpdb.RunCLI(cpdb.CLIConfig{TargetSpec: "badspec", Method: "N"}, &out); err == nil {
		t.Error("bad target spec should error")
	}
	if err := cpdb.RunCLI(cpdb.CLIConfig{Demo: true, Method: "N", Script: filepath.Join(t.TempDir(), "missing")}, &out); err == nil {
		t.Error("missing script file should error")
	}
	var sl cpdb.StringList
	sl.Set("a")
	sl.Set("b")
	if sl.String() != "a,b" {
		t.Error("StringList wrong")
	}
}

// TestCLIAuthVerbs: root / prove / verify against a verified:// store —
// the end-to-end CLI path for the authenticated-store surface — and against
// a replicated:// store whose primary is one: its authority is its
// primary's, so the same verbs print the same root.
func TestCLIAuthVerbs(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.cpdb")
	writeFile(t, script, figures.Script)
	var out strings.Builder
	var roots []string
	for _, backend := range []string{
		"verified://?inner=mem://",
		"replicated://?primary=" + url.QueryEscape("verified://?inner=mem://") + "&replica=mem://",
	} {
		out.Reset()
		cfg := cpdb.CLIConfig{
			Demo:        true,
			Script:      script,
			Method:      "HT",
			CommitEvery: 1,
			Backend:     backend,
			Queries:     cpdb.StringList{"root", "prove 6 T/c2/y", "verify"},
		}
		if err := cpdb.RunCLI(cfg, &out); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		s := out.String()
		for _, want := range []string{"root ", "prove 6 T/c2/y: ok", "verify: ok"} {
			if !strings.Contains(s, want) {
				t.Errorf("CLI auth output over %s missing %q:\n%s", backend, want, s)
			}
		}
		_, root, _ := strings.Cut(s, "root ")
		root, _, _ = strings.Cut(root, "\n")
		roots = append(roots, root)
	}
	if roots[0] != roots[1] {
		t.Errorf("root over replicated:// is %q, its primary's is %q", roots[1], roots[0])
	}

	// Errors: proofs from an unauthenticated store, malformed verbs.
	for _, tc := range []struct {
		backend string
		query   string
	}{
		{"", "root"},
		{"verified://?inner=mem://", "root extra"},
		{"verified://?inner=mem://", "prove notanumber T/c2/y"},
		{"verified://?inner=mem://", "prove 6"},
		{"verified://?inner=mem://", "verify extra"},
		{"verified://?inner=mem://", "prove 99 T/nowhere"},
	} {
		out.Reset()
		err := cpdb.RunCLI(cpdb.CLIConfig{
			Demo: true, Method: "N", Backend: tc.backend,
			Queries: cpdb.StringList{tc.query},
		}, &out)
		if err == nil {
			t.Errorf("query %q on backend %q should error", tc.query, tc.backend)
		}
	}
}

// TestSessionErrorsAreSessionErrors: errors from invalid ops surface.
func TestSessionErrors(t *testing.T) {
	s := figureSession(t, cpdb.Naive)
	if err := s.Insert(cpdb.MustParsePath("S1"), "x", nil); err == nil {
		t.Error("insert into source should error")
	}
	if err := s.Delete(cpdb.MustParsePath("T/none")); err == nil {
		t.Error("delete of missing should error")
	}
	if err := s.CopyPaste(cpdb.MustParsePath("Nowhere/a"), cpdb.MustParsePath("T/x")); err == nil {
		t.Error("copy from unknown db should error")
	}
	var errCheck error = errors.New("x")
	_ = errCheck
}
