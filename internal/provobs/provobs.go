// Package provobs is the observability layer under every other cpdb
// component: a typed metrics registry (monotonic counters, gauges, and
// lock-cheap log-bucketed histograms with quantile snapshots) and
// Prometheus text exposition over any set of registries. (A request's trace
// id rides provtrace's context value.)
//
// The registry is the only way a component reports numbers. A series
// registered with a stat key (WithStatKey) appears under that flat name in
// Stats — the /v1/stats JSON and the daemon's shutdown dump — and under its
// typed Prometheus family, with latency distributions and not just totals,
// at GET /metrics. A value that is computed rather than counted (replica
// lag, the published root's size, the relational engine's I/O counters)
// registers as a function read at snapshot time (CounterFunc, GaugeFunc).
//
// Design constraints, in order:
//
//   - Hot-path cost: Counter.Add, Gauge.Add/Set and Histogram.Observe are
//     one or two atomic adds, no locks, no allocation — cheap enough to sit
//     on every request and inside every plan operator.
//   - One registry per component: the provhttp server and every store or
//     decorator that counts something (mem, rel, verified, replicated, the
//     client cache) own a Registry and expose it, and only it, through the
//     Source interface. The daemon walks its backend chain (provstore.Walk)
//     and reads every store's Source, so a composed chain (replicated over
//     verified over sharded over rel) exposes every layer's metrics through
//     the one daemon endpoint.
//   - Exposition is a pure function of snapshots: Stats and WritePrometheus
//     take any number of registries and follow one rule — the same flat key,
//     or the same family and label set, seen in several registries adds, so
//     N shards read as the one store they stand for. The text is
//     deterministic and lint-clean: the CI scrape parses every line and
//     rejects duplicates.
package provobs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// A label is one metric dimension ({Key="endpoint", Value="scan"}).
// Label values are rendered into the exposition escaped; keys must be valid
// Prometheus label names ([a-zA-Z_][a-zA-Z0-9_]*), which every caller in
// this module uses literals for.
type label struct {
	Key   string
	Value string
}

// A Counter is a monotonically increasing metric (requests served, records
// appended). Add with a negative delta is a programming error; nothing
// checks it, and the exposition would still render the decreased value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// A Gauge is a point-in-time value that moves both ways (cursors currently
// open, replication lag).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (use a negative n to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set pins the gauge to v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// metricKind discriminates the families of a registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metricMeta is the registration-time identity of one series.
type metricMeta struct {
	labels  []label
	statKey string
}

// A MetricOpt configures one series at registration.
type MetricOpt func(*metricMeta)

// WithLabel adds one label pair to the series.
func WithLabel(key, value string) MetricOpt {
	return func(m *metricMeta) { m.labels = append(m.labels, label{key, value}) }
}

// WithStatKey also publishes the series (counters and gauges only) under
// the given flat key in Stats — the legacy /v1/stats name the
// typed metric subsumes.
func WithStatKey(key string) MetricOpt {
	return func(m *metricMeta) { m.statKey = key }
}

// series is one registered metric with its identity: a counter, a gauge, a
// histogram, or a function read at snapshot time.
type series struct {
	meta metricMeta
	c    *Counter
	g    *Gauge
	h    *Histogram
	f    func() int64
}

// load returns the scalar value of a counter/gauge series.
func (s *series) load() int64 {
	switch {
	case s.f != nil:
		return s.f()
	case s.c != nil:
		return s.c.Load()
	}
	return s.g.Load()
}

// family groups the series of one metric name.
type family struct {
	name string
	help string
	kind metricKind
	unit Unit // histograms only
	ser  []*series
}

// A Registry holds one component's metrics. Registration (Counter, Gauge,
// Histogram) is cheap but locked — do it once at construction; the returned
// handles are the lock-free hot path. The zero Registry is not usable; call
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds one series under name, creating or extending its family.
// Mismatched re-registration (same name, different kind or help) and
// duplicate label sets panic: both are wiring bugs, caught at construction.
func (r *Registry) register(name, help string, kind metricKind, unit Unit, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, unit: unit}
		r.fams[name] = f
	} else if f.kind != kind || f.help != help || f.unit != unit {
		panic(fmt.Sprintf("provobs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := labelString(s.meta.labels)
	for _, prev := range f.ser {
		if labelString(prev.meta.labels) == key {
			panic(fmt.Sprintf("provobs: duplicate series %s{%s}", name, key))
		}
	}
	f.ser = append(f.ser, s)
}

// Counter registers (and returns) a counter series. By Prometheus
// convention the family name should end in _total.
func (r *Registry) Counter(name, help string, opts ...MetricOpt) *Counter {
	s := &series{c: &Counter{}}
	r.scalar(name, help, kindCounter, s, opts)
	return s.c
}

// Gauge registers (and returns) a gauge series.
func (r *Registry) Gauge(name, help string, opts ...MetricOpt) *Gauge {
	s := &series{g: &Gauge{}}
	r.scalar(name, help, kindGauge, s, opts)
	return s.g
}

// CounterFunc registers a counter series whose value is f(), called at every
// snapshot — for a monotonic count some other component already keeps (the
// relational engine's fsyncs). f must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, f func() int64, opts ...MetricOpt) {
	r.scalar(name, help, kindCounter, &series{f: f}, opts)
}

// GaugeFunc registers a gauge series whose value is f(), called at every
// snapshot — for a value derived from state rather than counted (replica
// lag, the published root's size). f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() int64, opts ...MetricOpt) {
	r.scalar(name, help, kindGauge, &series{f: f}, opts)
}

// scalar registers one counter or gauge series.
func (r *Registry) scalar(name, help string, kind metricKind, s *series, opts []MetricOpt) {
	for _, o := range opts {
		o(&s.meta)
	}
	r.register(name, help, kind, UnitCount, s)
}

// Histogram registers (and returns) a histogram series. unit says how
// observed values are scaled in the exposition: UnitSeconds histograms
// observe nanoseconds and expose seconds (name them *_seconds), UnitCount
// histograms expose raw values.
func (r *Registry) Histogram(name, help string, unit Unit, opts ...MetricOpt) *Histogram {
	s := &series{h: newHistogram()}
	for _, o := range opts {
		o(&s.meta)
	}
	r.register(name, help, kindHistogram, unit, s)
	return s.h
}

// families copies the registry's family list, so a snapshot evaluates
// function-backed series (which may take their component's locks) outside
// the registration lock.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, &family{name: f.name, help: f.help, kind: f.kind, unit: f.unit, ser: slices.Clone(f.ser)})
	}
	return fams
}

// Stats snapshots every counter and gauge registered with a stat key into
// one flat map; a key registered in several registries (one per shard) reads
// as the sum. This is the one snapshot function behind both the /v1/stats
// endpoint and the daemon's shutdown dump.
func Stats(regs ...*Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, r := range regs {
		for _, f := range r.families() {
			if f.kind == kindHistogram {
				continue
			}
			for _, s := range f.ser {
				if s.meta.statKey != "" {
					out[s.meta.statKey] += s.load()
				}
			}
		}
	}
	return out
}

// DumpLines renders a stats snapshot as sorted "k=v" lines for a shutdown
// dump. Zero values are elided, except the ones where zero is exactly the
// interesting reading: cursors_open (the cursor-leak gauge), every
// repl.* / auth.* gauge (a zero lag or zero verify-failure count at
// shutdown is the healthy sign-off being looked for), and every cache.*
// counter (a cache that was enabled but never hit should say so, not
// vanish).
func DumpLines(stats map[string]int64) []string {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		if stats[k] != 0 || alwaysDumped(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%s=%d", k, stats[k])
	}
	return lines
}

// alwaysDumped reports whether a stats key prints even at zero.
func alwaysDumped(k string) bool {
	if k == "cursors_open" {
		return true
	}
	if len(k) > 6 && k[:6] == "cache." {
		return true
	}
	return len(k) > 5 && (k[:5] == "repl." || k[:5] == "auth.")
}

// A Source is a backend (or backend wrapper) that counts something itself.
// It returns its own registries only: provstore.Walk reaches the stores it
// is built over, so /metrics, /v1/stats and the shutdown dump read every
// store of a chain once, whatever its shape.
type Source interface {
	ObsRegistries() []*Registry
}
