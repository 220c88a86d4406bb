package provplan

import (
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provstore"
)

// EXPLAIN ANALYZE: when Query.Analyze is set (or a trace recorder is on the
// context), execution measures every operator of the plan through one tap
// type, opStat, used in one of two ways:
//
//   - stream wraps a streaming operator's cursor — access, filter, merge,
//     output, probe: it counts every record in, the records it keeps out,
//     and the time spent waiting on the upstream producer (never on the
//     downstream consumer);
//   - start/done brackets a blocking operator — sort, join-build, agg:* —
//     that drains its input before it produces anything.
//
// Outside analyze mode every tap is nil and costs nothing: stream hands the
// cursor back unchanged. The taps are atomic adds on the hot path (shard
// streams and the selects of a BFS wave share one tap per operator name),
// and the collected Analysis rides out of Rows as one final RowAnalyze row
// — which is how a remote analyze stays a single /v1/query round trip: the
// server streams its result rows and appends the tagged analysis trailer.
//
// Scanned is not counted separately: it is the sum of In over the
// operators that read a backend cursor, the access and probe taps.
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
// wiring order, plus the total records pulled from backend cursors (the sum
// of In over the access and probe operators).
type Analysis struct {
	Ops     []OpStat `json:"ops"`
	Scanned int64    `json:"scanned"`
}

// opStat is the tap of one operator: the live, concurrently-updated form of
// one OpStat. reads marks an operator that pulls from a backend cursor.
type opStat struct {
	name  string
	reads bool
	in    atomic.Int64
	out   atomic.Int64
	ns    atomic.Int64
}

// stream runs a streaming operator over scan: keep (nil keeps every record)
// decides which records pass downstream. A nil tap with a nil keep returns
// the cursor unchanged.
func (t *opStat) stream(scan iter.Seq2[provstore.Record, error], keep func(provstore.Record) bool) iter.Seq2[provstore.Record, error] {
	if t == nil && keep == nil {
		return scan
	}
	return func(yield func(provstore.Record, error) bool) {
		start := t.start()
		for r, err := range scan {
			if err != nil {
				yield(provstore.Record{}, err)
				return
			}
			if t != nil {
				t.ns.Add(time.Since(start).Nanoseconds())
				t.in.Add(1)
			}
			if keep == nil || keep(r) {
				if t != nil {
					t.out.Add(1)
				}
				if !yield(r, nil) {
					return
				}
			}
			start = t.start()
		}
		if t != nil {
			t.ns.Add(time.Since(start).Nanoseconds())
		}
	}
}

// start opens a measurement of the tap (nil-safe: a nil tap reads no clock).
func (t *opStat) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// done closes a blocking operator's measurement opened by start.
func (t *opStat) done(start time.Time, in, out int64) {
	if t == nil {
		return
	}
	t.in.Add(in)
	t.out.Add(out)
	t.ns.Add(time.Since(start).Nanoseconds())
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

func (a *analyzer) op(name string, reads bool) *opStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.idx[name]; ok {
		return t
	}
	t := &opStat{name: name, reads: reads}
	a.idx[name] = t
	a.ops = append(a.ops, t)
	return t
}

// analysis snapshots the collected stats.
func (a *analyzer) analysis() *Analysis {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := &Analysis{Ops: make([]OpStat, len(a.ops))}
	for i, t := range a.ops {
		res.Ops[i] = OpStat{Op: t.name, In: t.in.Load(), Out: t.out.Load(), NS: t.ns.Load()}
		if t.reads {
			res.Scanned += res.Ops[i].In
		}
	}
	return res
}

// exec carries one execution's analyzer down the operator tree; a nil *exec
// instruments nothing. Sub-plans — join subqueries, ancestry chain steps,
// Mod BFS waves — run under a prefixed view, so their operators land under
// "sub:", "step:" or "wave:" names and repeated steps accumulate into one
// entry per operator.
type exec struct {
	az     *analyzer
	prefix string
}

// op returns the named operator's tap, or nil outside analyze mode. The
// operator's role follows from its name, so no two registrations of one
// operator can disagree on it: "access:" and "probe:" operators read a
// backend cursor.
func (e *exec) op(name string) *opStat {
	if e == nil {
		return nil
	}
	reads := strings.HasPrefix(name, "access:") || strings.HasPrefix(name, "probe:")
	return e.az.op(e.prefix+name, reads)
}

// sub returns the prefixed view handed to a sub-plan's operators.
func (e *exec) sub(prefix string) *exec {
	if e == nil {
		return nil
	}
	return &exec{az: e.az, prefix: e.prefix + prefix}
}
