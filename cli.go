package cpdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/figures"
	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provstore"
	"repro/internal/provtrace"
	"repro/internal/tree"
)

// StringList is a repeatable command-line flag value.
type StringList []string

// String implements flag.Value.
func (l *StringList) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value.
func (l *StringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// CLIConfig is the configuration of the cpdb command-line shell.
type CLIConfig struct {
	// Demo loads the paper's Figure 3/4 fixture databases (T, S1, S2).
	Demo bool
	// TargetSpec is "NAME=file.xml" for the target database.
	TargetSpec string
	// SourceSpecs are "NAME=file.xml" entries for source databases.
	SourceSpecs StringList
	// Script is an update-script file path, "-" for stdin, or "" for none.
	Script string
	// Method is the provenance method abbreviation (N, H, T, HT).
	Method string
	// CommitEvery auto-commits every N operations (0 = one commit at end).
	CommitEvery int
	// Backend is a provenance-store DSN for OpenBackend ("mem://?shards=8",
	// "rel://prov.db?create=1&durable=1", "sharded://?…"); empty means the
	// in-memory default.
	Backend string
	// BatchSize groups provenance appends (see Config.BatchSize).
	BatchSize int
	// Queries are provenance queries: "src|hist|mod|trace PATH", or
	// "plan QUERY" with a declarative query in the plan grammar
	// ("plan select where loc>=T/c2 and op=C order loc-tid").
	// Against an authenticated store (verified:// or a cpdb:// daemon
	// serving one) three more verbs work: "root" prints the signed-off
	// Merkle root, "prove TID LOC" fetches and checks one inclusion
	// proof, and "verify" re-checks every stored record against the root.
	Queries StringList
	// Analyze turns every "plan" query into EXPLAIN ANALYZE: per-operator
	// rows-in/rows-out/time print after the result. A single query opts in
	// with "plan -analyze QUERY".
	Analyze bool
	// Trace records a span trace across this invocation's queries and
	// prints its id after they run. Against a cpdb:// backend every RPC
	// stamps the open span's id, so the daemon (and any daemon it chains
	// to) stores its half of the trace under the same id — inspect the
	// merged tree afterwards with -query "traces ID".
	Trace bool
	// Dump prints the provenance table and final target tree.
	Dump bool
}

func loadSpec(spec string) (name string, root *tree.Node, err error) {
	name, file, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("cpdb: spec %q is not NAME=file.xml", spec)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", nil, err
	}
	_, root, err = tree.UnmarshalXML(data)
	if err != nil {
		return "", nil, fmt.Errorf("cpdb: loading %s: %w", file, err)
	}
	return name, root, nil
}

// RunCLI executes one command-line session, writing results to w.
func RunCLI(cfg CLIConfig, w io.Writer) error {
	method, err := ParseMethod(cfg.Method)
	if err != nil {
		return err
	}

	var target Target
	var sources []Source
	switch {
	case cfg.Demo:
		target = NewMemTarget("T", figures.T0())
		sources = []Source{
			NewMemSource("S1", figures.S1()),
			NewMemSource("S2", figures.S2()),
		}
	case cfg.TargetSpec != "":
		name, root, err := loadSpec(cfg.TargetSpec)
		if err != nil {
			return err
		}
		target = wrapStore(name, root)
		for _, spec := range cfg.SourceSpecs {
			sname, sroot, err := loadSpec(spec)
			if err != nil {
				return err
			}
			sources = append(sources, wrapStore(sname, sroot))
		}
	default:
		return fmt.Errorf("cpdb: need -demo or -target NAME=file.xml")
	}

	var backend Backend
	if cfg.Backend != "" {
		backend, err = OpenBackend(cfg.Backend)
		if err != nil {
			return err
		}
	}
	s, err := New(Config{
		Target:          target,
		Sources:         sources,
		Method:          method,
		Backend:         backend,
		AutoCommitEvery: cfg.CommitEvery,
		BatchSize:       cfg.BatchSize,
	})
	if err != nil {
		if backend != nil {
			provstore.Close(backend)
		}
		return err
	}
	// Whatever the batching layer still buffers at exit is pushed down, and
	// file-backed stores opened from the DSN release their files.
	defer s.Close()

	if cfg.Script != "" {
		var script []byte
		if cfg.Script == "-" {
			script, err = io.ReadAll(os.Stdin)
		} else {
			script, err = os.ReadFile(cfg.Script)
		}
		if err != nil {
			return err
		}
		if err := s.Run(string(script)); err != nil {
			return err
		}
		// Flush a partially filled final transaction, if any.
		if _, err := s.Commit(); err != nil && !errors.Is(err, provstore.ErrNoTxn) {
			return err
		}
		fmt.Fprintf(w, "applied %d operations under method %s\n", s.TotalOps(), method)
	}

	qctx := context.Background()
	var rec *provtrace.Recorder
	if cfg.Trace {
		rec = provtrace.NewRecorder("", "")
		qctx = provtrace.WithRecorder(qctx, rec)
	}
	for _, q := range cfg.Queries {
		if err := runQuery(qctx, s, q, w, cfg.Analyze); err != nil {
			return err
		}
	}
	if rec != nil {
		fmt.Fprintf(w, "trace %s\n", rec.TraceID())
	}

	if cfg.Dump {
		fmt.Fprintf(w, "-- provenance table (%s) --\n", method)
		// Stream the table row by row off the backend cursor — the dump of
		// a huge (or remote) store never materializes the relation.
		for r, err := range s.Query().Records(context.Background()) {
			if err != nil {
				return err
			}
			fmt.Fprintln(w, r)
		}
		fmt.Fprintf(w, "-- target %s --\n%s\n", s.TargetName(), s.View())
		// A cpdb://…?cache= client's cached answers are only as fresh as the
		// horizon the client last observed, so when any read in this run was
		// answered locally, say so. With caching off (the
		// default) this stays silent and the dump is byte-identical.
		if cc, ok := backend.(*provhttp.Client); ok {
			if hits, _ := cc.CacheStats(); hits > 0 {
				fmt.Fprintf(w, "note: %d read(s) served from the client result cache (cache=, horizon-keyed); answers reflect the last observed MaxTid\n", hits)
			}
		}
	}
	return nil
}

func runQuery(ctx context.Context, s *Session, q string, w io.Writer, analyze bool) error {
	kind, rest, ok := strings.Cut(strings.TrimSpace(q), " ")
	switch strings.ToLower(kind) {
	case "root", "prove", "verify":
		return runAuthQuery(ctx, s, strings.ToLower(kind), strings.TrimSpace(rest), w)
	case "traces":
		return runTraces(ctx, s, strings.TrimSpace(rest), w)
	}
	if !ok {
		return fmt.Errorf("cpdb: query %q is not 'src|hist|mod|trace PATH', 'plan QUERY', 'root', 'prove TID LOC', 'verify' or 'traces [-slow DUR] [ID]'", q)
	}
	if strings.EqualFold(kind, "plan") {
		return runPlan(ctx, s, rest, w, analyze)
	}
	p, err := ParsePath(strings.TrimSpace(rest))
	if err != nil {
		return err
	}
	switch strings.ToLower(kind) {
	case "src":
		tid, found, err := s.Src(p)
		if err != nil {
			return err
		}
		if found {
			fmt.Fprintf(w, "src %s: inserted by txn %d\n", p, tid)
		} else {
			fmt.Fprintf(w, "src %s: unknown (external or pre-existing)\n", p)
		}
	case "hist":
		tids, err := s.Hist(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "hist %s: copied by txns %v\n", p, tids)
	case "mod":
		tids, err := s.Mod(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "mod %s: modified by txns %v\n", p, tids)
	case "trace":
		tr, err := s.Trace(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trace %s (%s):\n", p, tr.Origin)
		for _, ev := range tr.Events {
			fmt.Fprintf(w, "  %s\n", ev)
		}
		if tr.Origin == OriginExternal {
			fmt.Fprintf(w, "  chain leaves the database at %s\n", tr.External)
		}
	default:
		return fmt.Errorf("cpdb: unknown query kind %q", kind)
	}
	return nil
}

// runPlan parses, runs and prints one declarative plan query. Against a
// cpdb:// backend the whole query is one round trip to the daemon — with
// analyze on, the per-operator stats ride back as the result stream's
// trailer row, so it is still exactly one round trip.
func runPlan(ctx context.Context, s *Session, text string, w io.Writer, analyze bool) error {
	text = strings.TrimSpace(text)
	if rest, ok := strings.CutPrefix(text, "-analyze "); ok {
		analyze, text = true, rest
	}
	pq, err := ParsePlanQuery(text)
	if err != nil {
		return err
	}
	if analyze {
		cp := *pq
		cp.Analyze = true
		pq = &cp
	}
	res, err := s.Query(WithContext(ctx)).PlanQuery(pq)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan %s:\n", pq)
	switch {
	case pq.Op == "trace":
		fmt.Fprintf(w, "  origin: %s\n", res.Trace.Origin)
		for _, ev := range res.Trace.Events {
			fmt.Fprintf(w, "  %s\n", ev)
		}
		if res.Trace.Origin == OriginExternal {
			fmt.Fprintf(w, "  chain leaves the database at %s\n", res.Trace.External)
		}
	case pq.Op == "src" || pq.Agg != "":
		if res.Found {
			fmt.Fprintf(w, "  %d\n", res.Value)
		} else if pq.Op == "src" {
			fmt.Fprintf(w, "  unknown (external or pre-existing)\n")
		} else {
			fmt.Fprintf(w, "  none\n")
		}
	case pq.Op == "mod" || pq.Op == "hist":
		fmt.Fprintf(w, "  txns %v\n", res.Tids)
	default:
		for _, r := range res.Records {
			fmt.Fprintf(w, "  %s\n", r)
		}
		fmt.Fprintf(w, "  (%d records)\n", len(res.Records))
	}
	if res.Analysis != nil {
		fmt.Fprintf(w, "  analyze: %d records scanned\n", res.Analysis.Scanned)
		for _, op := range res.Analysis.Ops {
			fmt.Fprintf(w, "  op=%s in=%d out=%d time=%s\n", op.Op, op.In, op.Out, time.Duration(op.NS))
		}
	}
	return nil
}

// chainFind follows a backend chain's Inner() from the outside in — through
// decorators (batching layers, size-charging wrappers) and a replicated
// store, whose Inner() is its primary: its authority and its daemon are the
// primary's — to the first layer that is a T. It never descends into the
// shards of a sharded store, none of which answers for the whole.
func chainFind[T any](b Backend) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		u, ok := b.(interface{ Inner() provstore.Backend })
		if !ok {
			break
		}
		b = u.Inner()
	}
	var none T
	return none, false
}

// sessionAuthority finds the first store of the session's backend chain that
// serves Merkle proofs: a local verified:// AuthBackend, or a cpdb:// client
// whose daemon does.
func sessionAuthority(s *Session) (provauth.Authority, error) {
	if a, ok := chainFind[provauth.Authority](s.BackendStore()); ok {
		return a, nil
	}
	return nil, errors.New("cpdb: this store serves no proofs; open it via -backend 'verified://?inner=DSN' (or cpdb:// to a daemon that does)")
}

// runAuthQuery serves the authenticated-store verbs. All three answer about
// committed state, so buffered writes are pushed down and the open
// transaction sealed first — otherwise a half-flushed transaction would
// read as tampering.
func runAuthQuery(ctx context.Context, s *Session, kind, rest string, w io.Writer) error {
	if err := s.Flush(); err != nil {
		return err
	}
	auth, err := sessionAuthority(s)
	if err != nil {
		return err
	}
	// The session's Flush drains the batching layer into the authority;
	// this one makes the authority seal the transaction those writes
	// opened.
	if f, ok := auth.(provstore.Flusher); ok {
		if err := f.Flush(ctx); err != nil {
			return err
		}
	}
	switch kind {
	case "root":
		if rest != "" {
			return fmt.Errorf("cpdb: root takes no argument (got %q)", rest)
		}
		root, err := auth.Root(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "root %s\n", root)
	case "prove":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return fmt.Errorf("cpdb: prove needs TID LOC (got %q)", rest)
		}
		tid, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("cpdb: prove: %q is not a transaction id", fields[0])
		}
		loc, err := ParsePath(fields[1])
		if err != nil {
			return err
		}
		// One record's proof is the first record of a proven point scan:
		// over a pinned client, a pinned read like every other.
		for pr, err := range auth.ScanProven(ctx, provstore.ByLoc(loc).After(tid-1, loc).Until(tid)) {
			if err == nil {
				err = pr.Verify()
			}
			if err != nil {
				return fmt.Errorf("cpdb: prove %d %s: %w", tid, loc, err)
			}
			fmt.Fprintf(w, "prove %d %s: ok — leaf %d of %d under root %s\n", tid, loc, pr.Proof.LeafIndex, pr.Proof.TreeSize, pr.Root)
			return nil
		}
		return fmt.Errorf("cpdb: prove %d %s: no such record under the store's root", tid, loc)
	case "verify":
		if rest != "" {
			return fmt.Errorf("cpdb: verify takes no argument (got %q)", rest)
		}
		root, err := auth.Root(ctx)
		if err != nil {
			return err
		}
		var n uint64
		for pr, err := range auth.ScanProven(ctx, provstore.All()) {
			if err != nil {
				return fmt.Errorf("cpdb: verify: after %d record(s): %w", n, err)
			}
			if verr := pr.Verify(); verr != nil {
				return fmt.Errorf("cpdb: verify: record %d %s: %w", pr.Rec.Tid, pr.Rec.Loc, verr)
			}
			root = pr.Root
			n++
		}
		// Every yielded record checked out; now the count must match the
		// root the stream answered under, or the store withheld records the
		// log committed.
		if n != root.Size {
			return fmt.Errorf("cpdb: verify: store returned %d record(s) but the root covers %d", n, root.Size)
		}
		fmt.Fprintf(w, "verify: ok — %d record(s) match root %s\n", n, root)
	}
	return nil
}

// sessionTraces finds the first cpdb:// client of the session's backend chain
// — traces live in a daemon's ring buffer, so the verb only works against a
// remote backend.
func sessionTraces(s *Session) (*provhttp.Client, error) {
	if c, ok := chainFind[*provhttp.Client](s.BackendStore()); ok {
		return c, nil
	}
	return nil, errors.New("cpdb: traces live in a daemon's buffer; open the store via -backend cpdb://HOST:PORT (daemon started with -trace-buffer)")
}

// runTraces serves the "traces [-slow DUR] [ID]" verb: with an ID it fetches
// that trace — the daemon merges in the halves recorded by any daemon it
// chains to — and renders the span tree; without one it lists the daemon's
// buffered traces, newest first, optionally filtered to roots at least
// -slow long.
func runTraces(ctx context.Context, s *Session, rest string, w io.Writer) error {
	cli, err := sessionTraces(s)
	if err != nil {
		return err
	}
	var minDur time.Duration
	var id string
	fields := strings.Fields(rest)
	for i := 0; i < len(fields); i++ {
		switch {
		case fields[i] == "-slow":
			if i+1 >= len(fields) {
				return errors.New("cpdb: traces -slow needs a duration")
			}
			i++
			d, err := time.ParseDuration(fields[i])
			if err != nil {
				return fmt.Errorf("cpdb: traces -slow: %w", err)
			}
			minDur = d
		case id == "":
			id = fields[i]
		default:
			return fmt.Errorf("cpdb: traces takes [-slow DUR] [ID] (got %q)", rest)
		}
	}
	if id != "" {
		spans, err := cli.FetchTrace(ctx, id)
		if err != nil {
			return err
		}
		if len(spans) == 0 {
			return fmt.Errorf("cpdb: no trace %q in the daemon's buffer (evicted, or never recorded)", id)
		}
		fmt.Fprintf(w, "trace %s (%d spans):\n", id, len(spans))
		provtrace.Render(w, provtrace.BuildTree(spans))
		return nil
	}
	traces, err := cli.Traces(ctx, minDur, 0)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		fmt.Fprintln(w, "traces: none buffered")
		return nil
	}
	for _, t := range traces {
		flags := ""
		if t.Err {
			flags += " ERR"
		}
		if t.Slow {
			flags += " SLOW"
		}
		fmt.Fprintf(w, "trace %s  %-16s %s%s\n", t.TraceID, t.Root, t.Dur, flags)
	}
	return nil
}

// wrapStore builds an in-memory editable store from a loaded tree.
func wrapStore(name string, root *tree.Node) Target {
	return NewMemTarget(name, root)
}
