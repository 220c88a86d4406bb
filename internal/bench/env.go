// Package bench assembles full simulated CPDB deployments and reruns every
// experiment of the paper's evaluation (Table 1, Figures 7–13). Costs are
// charged on the netsim virtual clock, calibrated to the paper's testbed
// scale (Timber target interaction ≈ 400 ms, MySQL provenance round trips
// tens of ms), so the *shape* of every figure — who wins, by what factor —
// is reproduced deterministically.
package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/provstore"
	"repro/internal/relprov"
	"repro/internal/relstore"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"
)

// Costs prices the simulated connections. The defaults are calibrated so
// that the paper's headline observations hold: dataset interaction ≈ 400 ms
// (SOAP to Timber on the 2 GHz P4 testbed), naïve provenance overhead per
// operation < 30 %, transactional commits ≈ 25 % of a dataset interaction.
type Costs struct {
	Target    netsim.CostModel // editor ↔ target database (SOAP/Timber)
	Source    netsim.CostModel // editor ↔ source database (JDBC/MySQL)
	ProvWrite netsim.CostModel // provenance INSERT round trips
	ProvRead  netsim.CostModel // provenance SELECT round trips
	// QueryRTT and QueryPerRow price the worst-case unindexed scans of
	// the query experiment ("No indexing was performed on the provenance
	// relation, so these query times represent worst-case behavior",
	// §4.1): every query round trip costs QueryRTT plus QueryPerRow ×
	// table rows.
	QueryRTT    time.Duration
	QueryPerRow time.Duration
}

// defaultCosts is the calibrated model used by all experiments.
func defaultCosts() Costs {
	return Costs{
		Target:      netsim.CostModel{RTT: 380 * time.Millisecond, PerRecord: 8 * time.Millisecond},
		Source:      netsim.CostModel{RTT: 60 * time.Millisecond, PerRecord: 2 * time.Millisecond},
		ProvWrite:   netsim.CostModel{RTT: 50 * time.Millisecond, PerRecord: 5 * time.Millisecond},
		ProvRead:    netsim.CostModel{RTT: 35 * time.Millisecond, PerRecord: 50 * time.Microsecond},
		QueryRTT:    10 * time.Millisecond,
		QueryPerRow: 150 * time.Microsecond,
	}
}

// backendKind selects where provenance rows are persisted.
type backendKind int

// Backend kinds.
const (
	memProv backendKind = iota // in-memory store (fast; counts and bytes)
	relProv                    // relational engine on disk (file sizes)
)

// simConfig sizes one simulated deployment.
type simConfig struct {
	Method      provstore.Method
	Pattern     workload.Pattern
	Deletion    workload.Deletion
	TxnLen      int // commit every N operations (deferred methods)
	Seed        int64
	Backend     backendKind
	Dir         string // scratch directory for the stores ("" = one newSimEnv makes and Close removes)
	TargetScale dataset.MiMIConfig
	SourceScale dataset.OrganelleConfig
}

// A simEnv is one assembled deployment: clock, meter, stores, editor and
// workload generator.
type simEnv struct {
	Clock  *netsim.Clock
	Meter  *netsim.Meter
	Editor *core.Editor
	Inner  provstore.Backend // uncharged store (for counts/bytes)
	Gen    *workload.Generator

	srcDB  *relstore.DB // the OrganelleDB source
	relDB  *relstore.DB // non-nil for relProv
	tmpDir string       // created by newSimEnv when cfg.Dir is empty
}

// newSimEnv assembles a deployment. On error it releases whatever it opened.
func newSimEnv(cfg simConfig, costs Costs) (_ *simEnv, err error) {
	clock := netsim.NewClock()
	env := &simEnv{Clock: clock, Meter: netsim.NewMeter(clock)}
	defer func() {
		if err != nil {
			env.Close()
		}
	}()

	// Target: MiMI-like tree database (Timber stand-in).
	targetTree := dataset.GenMiMI(cfg.TargetScale)
	target := netsim.ChargeTarget(wrapper.NewXMLTarget(xmlstore.NewMem("MiMI", targetTree)),
		netsim.NewConn("target", clock, costs.Target))

	// Source: OrganelleDB-like relation in the relational engine,
	// wrapped as the four-level tree view, as in the paper's deployment.
	dir := cfg.Dir
	if dir == "" {
		if env.tmpDir, err = os.MkdirTemp("", "cpdb-bench-"); err != nil {
			return nil, err
		}
		dir = env.tmpDir
	}
	if env.srcDB, err = relstore.Open(filepath.Join(dir, fmt.Sprintf("organelle-%s-%s.rel", cfg.Method, cfg.Pattern)), true, false); err != nil {
		return nil, err
	}
	if err = dataset.LoadOrganelleDB(env.srcDB, cfg.SourceScale); err != nil {
		return nil, err
	}
	relSrc := wrapper.NewRelSource("OrganelleDB", env.srcDB)
	source := netsim.ChargeSource(relSrc, netsim.NewConn("source", clock, costs.Source))

	// Provenance store.
	switch cfg.Backend {
	case relProv:
		rel, err := relprov.OpenFile(filepath.Join(dir, fmt.Sprintf("prov-%s-%s.rel", cfg.Method, cfg.Pattern)), relprov.Options{Create: true})
		if err != nil {
			return nil, err
		}
		env.Inner, env.relDB = rel, rel.DB()
	default:
		env.Inner = provstore.NewMemBackend()
	}
	backend := netsim.ChargeBackend(env.Inner,
		netsim.NewConn("prov-write", clock, costs.ProvWrite),
		netsim.NewConn("prov-read", clock, costs.ProvRead))

	tracker, err := provstore.New(cfg.Method, provstore.Config{Backend: backend})
	if err != nil {
		return nil, err
	}

	// Editor with auto-commit. Session setup (loading the tree views)
	// advances the clock outside every meter category, so no figure counts
	// it.
	if env.Editor, err = core.NewEditor(core.Config{
		Target:          target,
		Sources:         []wrapper.Source{source},
		Tracker:         tracker,
		Meter:           env.Meter,
		AutoCommitEvery: cfg.TxnLen,
	}); err != nil {
		return nil, err
	}

	// Workload generator over the same initial views.
	srcTree, err := relSrc.Tree()
	if err != nil {
		return nil, err
	}
	env.Gen = workload.New(workload.Config{
		Pattern:    cfg.Pattern,
		Deletion:   cfg.Deletion,
		Seed:       cfg.Seed,
		TargetName: "MiMI",
		SourceName: "OrganelleDB",
	}, targetTree, srcTree)
	return env, nil
}

// Close releases what newSimEnv opened: both stores and the scratch directory
// it made.
func (e *simEnv) Close() error {
	var errs []error
	for _, db := range []*relstore.DB{e.relDB, e.srcDB} {
		if db != nil {
			errs = append(errs, db.Close())
		}
	}
	if e.tmpDir != "" {
		errs = append(errs, os.RemoveAll(e.tmpDir))
	}
	return errors.Join(errs...)
}

// withEnv assembles the deployment cfg describes, applies seq through its
// editor — or, when seq is nil, the next steps operations of its own
// workload — commits the tail transaction, hands the deployment to read and
// closes it.
func withEnv(cfg simConfig, costs Costs, steps int, seq update.Sequence, read func(*simEnv) error) (err error) {
	env, err := newSimEnv(cfg, costs)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, env.Close()) }()
	if seq == nil {
		seq = env.Gen.Sequence(steps)
	}
	for i, op := range seq {
		if err := env.Editor.Apply(op); err != nil {
			return fmt.Errorf("bench: op %d: %w", i+1, err)
		}
	}
	if _, err := env.Editor.Commit(); err != nil && !errors.Is(err, provstore.ErrNoTxn) {
		return err
	}
	return read(env)
}
