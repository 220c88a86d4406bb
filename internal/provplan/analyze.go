package provplan

import (
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provstore"
)

// EXPLAIN ANALYZE: when Query.Analyze is set, execution taps every operator
// of the plan pipeline — access scans, the residual filter, the shard
// merge, sort, the output cut, join key building, aggregation — and counts
// rows in, rows out and wall time per operator. The taps are atomic adds on
// the hot path (shard streams and the selects of a BFS wave share one tap
// per operator name), and the collected Analysis rides out of Rows as one final
// RowAnalyze row — which is how a remote analyze stays a single /v1/query
// round trip: the server streams its result rows and appends the tagged
// analysis trailer.
//
// Time is cumulative producer time: an operator's NS is the wall time spent
// producing its output, including the operators beneath it (subtract the
// upstream operator's NS for self time). Operators that run once per shard
// or per ancestry step share one entry, so NS can exceed request wall time
// when branches run concurrently.

// An OpStat is one operator's measured execution: rows pulled in, rows
// passed downstream, and cumulative producer-side wall time.
type OpStat struct {
	Op  string `json:"op"`
	In  int64  `json:"in"`
	Out int64  `json:"out"`
	NS  int64  `json:"ns"`
}

// An Analysis is a plan execution's per-operator measurements, in pipeline
// wiring order, plus the total records pulled from backend cursors (the
// same work metric as Result.Scanned).
type Analysis struct {
	Ops     []OpStat `json:"ops"`
	Scanned int64    `json:"scanned"`
}

// opStat is the live, concurrently-updated form of one OpStat.
type opStat struct {
	name string
	in   atomic.Int64
	out  atomic.Int64
	ns   atomic.Int64
}

// addOut is the nil-safe output-row tap.
func (t *opStat) addOut() {
	if t != nil {
		t.out.Add(1)
	}
}

// tap wraps a cursor as one pass-through operator: every record counts in
// and out, and ns accumulates the time spent waiting on the upstream
// producer (never the downstream consumer). Nil-safe: a nil tap returns the
// cursor unchanged.
func (t *opStat) tap(scan iter.Seq2[provstore.Record, error]) iter.Seq2[provstore.Record, error] {
	if t == nil {
		return scan
	}
	return func(yield func(provstore.Record, error) bool) {
		start := time.Now()
		for r, err := range scan {
			t.ns.Add(time.Since(start).Nanoseconds())
			if err == nil {
				t.in.Add(1)
				t.out.Add(1)
			}
			if !yield(r, err) {
				return
			}
			start = time.Now()
		}
		t.ns.Add(time.Since(start).Nanoseconds())
	}
}

// analyzer collects the operator stats of one plan execution. op is
// get-or-create by name under a mutex (registration is per operator, not
// per row); the returned *opStat is the lock-free hot path, shared by every
// pipeline branch that names the same operator.
type analyzer struct {
	mu  sync.Mutex
	ops []*opStat // wiring order
	idx map[string]*opStat
}

func newAnalyzer() *analyzer {
	return &analyzer{idx: make(map[string]*opStat)}
}

func (a *analyzer) op(name string) *opStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.idx[name]; ok {
		return t
	}
	t := &opStat{name: name}
	a.idx[name] = t
	a.ops = append(a.ops, t)
	return t
}

// analysis snapshots the collected stats.
func (a *analyzer) analysis(scanned int64) *Analysis {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := &Analysis{Scanned: scanned, Ops: make([]OpStat, len(a.ops))}
	for i, t := range a.ops {
		res.Ops[i] = OpStat{Op: t.name, In: t.in.Load(), Out: t.out.Load(), NS: t.ns.Load()}
	}
	return res
}

// exec carries one execution's instrumentation down the operator tree: the
// Scanned work counter and, in analyze mode, the analyzer. A nil *exec (and
// an exec without analyzer) instruments nothing. Sub-plans — join
// subqueries, ancestry chain steps, Mod BFS waves — run under a prefixed
// view, so their operators land under "sub:", "step:" or "wave:" names and
// repeated steps accumulate into one entry per operator.
type exec struct {
	scanned *atomic.Int64
	az      *analyzer
	prefix  string
}

// counter returns the Scanned counter (nil-safe).
func (e *exec) counter() *atomic.Int64 {
	if e == nil {
		return nil
	}
	return e.scanned
}

// op returns the named operator's tap, or nil outside analyze mode.
func (e *exec) op(name string) *opStat {
	if e == nil || e.az == nil {
		return nil
	}
	return e.az.op(e.prefix + name)
}

// sub returns the prefixed view handed to a sub-plan's operators.
func (e *exec) sub(prefix string) *exec {
	if e == nil {
		return nil
	}
	return &exec{scanned: e.scanned, az: e.az, prefix: e.prefix + prefix}
}
