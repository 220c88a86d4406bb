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

// DefaultCosts is the calibrated model used by all experiments.
func DefaultCosts() Costs {
	return Costs{
		Target:      netsim.CostModel{RTT: 380 * time.Millisecond, PerRecord: 8 * time.Millisecond},
		Source:      netsim.CostModel{RTT: 60 * time.Millisecond, PerRecord: 2 * time.Millisecond},
		ProvWrite:   netsim.CostModel{RTT: 50 * time.Millisecond, PerRecord: 5 * time.Millisecond},
		ProvRead:    netsim.CostModel{RTT: 35 * time.Millisecond, PerRecord: 50 * time.Microsecond},
		QueryRTT:    10 * time.Millisecond,
		QueryPerRow: 150 * time.Microsecond,
	}
}

// BackendKind selects where provenance rows are persisted.
type BackendKind int

// Backend kinds.
const (
	MemProv BackendKind = iota // in-memory store (fast; counts and bytes)
	RelProv                    // relational engine on disk (file sizes)
)

// EnvConfig sizes one simulated deployment.
type EnvConfig struct {
	Method      provstore.Method
	Pattern     workload.Pattern
	Deletion    workload.Deletion
	TxnLen      int // commit every N operations (deferred methods)
	Seed        int64
	Backend     BackendKind
	Dir         string // scratch directory for the stores ("" = one NewEnv makes and Close removes)
	TargetScale dataset.MiMIConfig
	SourceScale dataset.OrganelleConfig
}

// An Env is one assembled deployment: clock, meter, stores, editor and
// workload generator.
type Env struct {
	Clock  *netsim.Clock
	Meter  *netsim.Meter
	Editor *core.Editor
	Inner  provstore.Backend // uncharged store (for counts/bytes)
	Gen    *workload.Generator

	srcDB  *relstore.DB // the OrganelleDB source
	relDB  *relstore.DB // non-nil for RelProv
	tmpDir string       // created by NewEnv when cfg.Dir is empty
}

// NewEnv assembles a deployment. On error it releases whatever it opened.
func NewEnv(cfg EnvConfig, costs Costs) (_ *Env, err error) {
	clock := netsim.NewClock()
	env := &Env{Clock: clock, Meter: netsim.NewMeter(clock)}
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
	if env.srcDB, err = relstore.Create(filepath.Join(dir, fmt.Sprintf("organelle-%s-%s.rel", cfg.Method, cfg.Pattern))); err != nil {
		return nil, err
	}
	if err = dataset.LoadOrganelleDB(env.srcDB, cfg.SourceScale); err != nil {
		return nil, err
	}
	relSrc := wrapper.NewRelSource("OrganelleDB", env.srcDB)
	source := netsim.ChargeSource(relSrc, netsim.NewConn("source", clock, costs.Source))

	// Provenance store.
	switch cfg.Backend {
	case RelProv:
		if env.relDB, err = relstore.Create(filepath.Join(dir, fmt.Sprintf("prov-%s-%s.rel", cfg.Method, cfg.Pattern))); err != nil {
			return nil, err
		}
		if env.Inner, err = relprov.Create(env.relDB); err != nil {
			return nil, err
		}
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

// Close releases what NewEnv opened: both stores and the scratch directory
// it made.
func (e *Env) Close() error {
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
func withEnv(cfg EnvConfig, costs Costs, steps int, seq update.Sequence, read func(*Env) error) (err error) {
	env, err := NewEnv(cfg, costs)
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
