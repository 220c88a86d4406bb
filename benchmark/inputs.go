package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	cpdb "repro"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// The fixed flush policy of every workload: method HT, one provenance
// transaction per commitEvery editor operations, durable=1 stores, one WAL
// group commit per append batch.
const commitEvery = 5

// An editOp is one generated curator operation: its script text and a
// closure that applies it to a session (the op's own type lives in an
// internal package the benchmark does not name).
type editOp struct {
	text  string
	apply func(*cpdb.Session) error
}

// inputs is everything one seed generates. The program under test sees only
// these.
type inputs struct {
	seed    int64
	target  *cpdb.Node // MiMI-like target before any operation
	source  *cpdb.Node // OrganelleDB-like source
	history []editOp   // the shared history
	mirror  *cpdb.Node // the target after the history
	next    []editOp   // the operations that follow the history
	rng     *rand.Rand // location picks
	method  cpdb.Method
}

// genInputs makes the shared inputs from the seed: nHistory operations of
// the paper's "real" pattern, and the nNext operations after them.
func genInputs(seed int64, nHistory, nNext int) *inputs {
	mimi, org := dataset.DefaultMiMI, dataset.DefaultOrganelle
	mimi.Seed, org.Seed = seed, seed+1
	in := &inputs{
		seed:   seed,
		target: dataset.GenMiMI(mimi),
		source: dataset.GenOrganelleTree(org),
		rng:    rand.New(rand.NewSource(seed + 3)),
		method: cpdb.HierTrans,
	}
	gen := workload.New(workload.Config{Pattern: workload.Real, Seed: seed + 2}, in.target, in.source)
	bind := func(n int) []editOp {
		ops := make([]editOp, n)
		for i := range ops {
			op := gen.Next()
			ops[i] = editOp{text: op.String(), apply: func(s *cpdb.Session) error { return s.Apply(op) }}
		}
		return ops
	}
	in.history = bind(nHistory)
	in.mirror = gen.TargetMirror()
	in.next = bind(nNext)
	return in
}

// startTid is the first transaction after the history.
func (in *inputs) startTid() int64 { return int64(len(in.history)/commitEvery) + 1 }

// session opens a curation session over the store dsn names, editing a
// private copy of target. batch is Config.BatchSize.
func (in *inputs) session(dsn string, target *cpdb.Node, startTid int64, batch int) (*cpdb.Session, error) {
	be, err := cpdb.OpenBackend(dsn)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dsn, err)
	}
	s, err := cpdb.New(cpdb.Config{
		Target:    cpdb.NewMemTarget("T", target.Clone()),
		Sources:   []cpdb.Source{cpdb.NewMemSource("S", in.source.Clone())},
		Method:    in.method,
		Backend:   be,
		BatchSize: batch,
		StartTid:  startTid,
	})
	if err != nil {
		cpdb.CloseBackend(be) //nolint:errcheck // the session error is the one to report
		return nil, err
	}
	return s, nil
}

// runTxns applies ops as transactions of commitEvery operations. Each
// transaction is one latency sample — first Apply to commit acknowledged —
// and one "txn" span with "apply" and "commit" children. It returns the
// samples and how many transactions failed.
func runTxns(s *cpdb.Session, ops []editOp, tr *tracer) (lat []time.Duration, failed int) {
	lat = make([]time.Duration, 0, len(ops)/commitEvery+1)
	for i := 0; i < len(ops); i += commitEvery {
		t0 := time.Now()
		root := tr.begin("txn", 0)
		err := applyCommit(s, ops[i:min(i+commitEvery, len(ops))], tr, root)
		tr.end(root)
		lat = append(lat, time.Since(t0))
		if err != nil {
			failed++
		}
	}
	return lat, failed
}

func applyCommit(s *cpdb.Session, ops []editOp, tr *tracer, parent int) error {
	sp := tr.begin("apply", parent)
	for _, op := range ops {
		if err := op.apply(s); err != nil {
			tr.end(sp)
			return err
		}
	}
	tr.end(sp)
	sp = tr.begin("commit", parent)
	_, err := s.Commit()
	tr.end(sp)
	return err
}

// digestOf drains the session's store and digests it.
func digestOf(s *cpdb.Session) (digest, error) {
	h := newRecHash()
	for rec, err := range s.Query().Records(context.Background()) {
		if err != nil {
			return digest{}, err
		}
		h.add(rec)
	}
	return h.digest(), nil
}

// replay runs ops from an empty mem:// store in process and returns the
// session, still open: the reference every other store must agree with.
func (in *inputs) replay(ops ...[]editOp) (*cpdb.Session, error) {
	s, err := in.session("mem://", in.target, 1, 0)
	if err != nil {
		return nil, err
	}
	for _, part := range ops {
		if _, failed := runTxns(s, part, nil); failed > 0 {
			return nil, fmt.Errorf("benchmark: %d transactions failed in the mem:// replay", failed)
		}
	}
	return s, nil
}

// buildHistory writes the history in process into a new durable relational
// store in dir and closes it.
func (in *inputs) buildHistory(dir string) error {
	s, err := in.session(relDSN(dir, "create=1&durable=1"), in.target, 1, 256)
	if err != nil {
		return err
	}
	if _, failed := runTxns(s, in.history, nil); failed > 0 {
		s.Close() //nolint:errcheck // the failure count is the error
		return fmt.Errorf("benchmark: %d history transactions failed", failed)
	}
	return s.Close()
}

// neverDeleted lists, in store order, the location and transaction of every
// record about a location no transaction ever deleted: asking about those
// always has provenance to walk (asking about deleted data is an error).
func neverDeleted(ref *cpdb.Session) (locs []cpdb.Path, tids []int64, err error) {
	var recs []cpdb.Record
	deleted := map[string]bool{}
	for rec, err := range ref.Query().Records(context.Background()) {
		if err != nil {
			return nil, nil, err
		}
		if rec.Op == 'D' {
			deleted[rec.Loc.String()] = true
		}
		recs = append(recs, rec)
	}
	for _, rec := range recs {
		if rec.Op != 'D' && !deleted[rec.Loc.String()] {
			locs, tids = append(locs, rec.Loc), append(tids, rec.Tid)
		}
	}
	if len(locs) == 0 {
		return nil, nil, errors.New("benchmark: the replay left no live location to ask about")
	}
	return locs, tids, nil
}
