// Package netsim simulates the network and service costs that dominate the
// paper's measurements. CPDB's evaluation ran over JDBC and SOAP on a 2 GHz
// Pentium 4; the per-operation times of Figures 9, 10, 12 and 13 are mostly
// round trips to the target database (Timber) and the provenance database
// (MySQL). netsim reproduces those costs on a deterministic *virtual clock*:
// every simulated call advances the clock by a configurable round-trip
// latency plus per-record and per-byte service time, so experiments are
// exactly repeatable and machine-independent.
//
// ChargeTarget, ChargeSource and ChargeBackend are the only code that
// charges a Conn: each bills one Call per logical round trip of the paper's
// architecture — a wrapper method is a call to the wrapped database (SOAP to
// Timber, JDBC to MySQL), a backend method a call to the provenance
// database — and a failed round trip aborts the operation before it reaches
// the wrapped store, as a dropped network call would.
//
// The package also supports deterministic fault injection, used by failure
// tests to verify that a lost round trip cannot corrupt the provenance
// store.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ErrNetwork is returned by a Conn when fault injection drops a call.
var ErrNetwork = errors.New("netsim: simulated network failure")

// A Clock is a virtual clock measuring simulated time. The zero value
// starts at instant 0.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock at instant 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual instant.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d panics).
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("netsim: clock cannot run backwards")
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// A CostModel prices one simulated call: a fixed round-trip latency plus
// service time per record and per byte shipped.
type CostModel struct {
	RTT       time.Duration
	PerRecord time.Duration
	PerByte   time.Duration
}

// Cost returns the virtual duration of a call carrying the given payload.
func (m CostModel) Cost(records, bytes int) time.Duration {
	return m.RTT + time.Duration(records)*m.PerRecord + time.Duration(bytes)*m.PerByte
}

// ConnStats summarizes the traffic a Conn has carried.
type ConnStats struct {
	Calls   int64
	Records int64
	Bytes   int64
	Busy    time.Duration // total virtual time spent in calls
	Faults  int64
}

// A Conn is a simulated connection to one service (the target database, the
// provenance database, a source wrapper). Each Call advances the shared
// clock by the model's cost and is counted.
type Conn struct {
	name  string
	clock *Clock
	model CostModel

	mu    sync.Mutex
	stats ConnStats
	fault *rand.Rand
	rate  float64
}

// NewConn returns a connection named for diagnostics, charging the given
// model against the clock.
func NewConn(name string, clock *Clock, model CostModel) *Conn {
	return &Conn{name: name, clock: clock, model: model}
}

// Name returns the connection's diagnostic name.
func (c *Conn) Name() string { return c.name }

// Model returns the connection's cost model.
func (c *Conn) Model() CostModel { return c.model }

// InjectFaults makes a fraction rate of subsequent calls fail
// deterministically (given the seed) with ErrNetwork. A rate of 0 disables
// injection.
func (c *Conn) InjectFaults(rate float64, seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rate <= 0 {
		c.fault, c.rate = nil, 0
		return
	}
	c.fault, c.rate = rand.New(rand.NewSource(seed)), rate
}

// Call simulates one round trip carrying the given payload, advancing the
// clock. It returns ErrNetwork when fault injection drops the call (the
// latency is still paid — the caller waited for the timeout).
func (c *Conn) Call(records, bytes int) error {
	cost := c.model.Cost(records, bytes)
	c.clock.Advance(cost)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++
	c.stats.Records += int64(records)
	c.stats.Bytes += int64(bytes)
	c.stats.Busy += cost
	if c.fault != nil && c.fault.Float64() < c.rate {
		c.stats.Faults++
		return fmt.Errorf("%w: %s", ErrNetwork, c.name)
	}
	return nil
}

// Stats returns a copy of the traffic counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// A Meter accumulates virtual time per operation category — the instrument
// behind the per-operation bars of Figures 9, 10 and 12.
type Meter struct {
	clock *Clock
	mu    sync.Mutex
	cats  map[string]*Bucket
}

// A Bucket is one category's accumulated measurements.
type Bucket struct {
	Count int64
	Total time.Duration
}

// Avg returns the mean virtual duration per measured operation.
func (b Bucket) Avg() time.Duration {
	if b.Count == 0 {
		return 0
	}
	return b.Total / time.Duration(b.Count)
}

// NewMeter returns a meter reading the given clock.
func NewMeter(clock *Clock) *Meter {
	return &Meter{clock: clock, cats: make(map[string]*Bucket)}
}

// Measure runs fn, attributing the virtual time it consumes to category.
func (m *Meter) Measure(category string, fn func() error) error {
	start := m.clock.Now()
	err := fn()
	elapsed := m.clock.Now() - start
	m.mu.Lock()
	b, ok := m.cats[category]
	if !ok {
		b = &Bucket{}
		m.cats[category] = b
	}
	b.Count++
	b.Total += elapsed
	m.mu.Unlock()
	return err
}

// Add attributes a pre-measured duration to a category.
func (m *Meter) Add(category string, d time.Duration) {
	m.mu.Lock()
	b, ok := m.cats[category]
	if !ok {
		b = &Bucket{}
		m.cats[category] = b
	}
	b.Count++
	b.Total += d
	m.mu.Unlock()
}

// Bucket returns a copy of one category's accumulation.
func (m *Meter) Bucket(category string) Bucket {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.cats[category]; ok {
		return *b
	}
	return Bucket{}
}

// Categories returns the measured category names, sorted.
func (m *Meter) Categories() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cats))
	for k := range m.cats {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset clears all buckets.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cats = make(map[string]*Bucket)
}
