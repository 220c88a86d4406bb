package provobs

import (
	"math"
	"sync/atomic"
)

// The histogram is log-bucketed with histSub sub-buckets per power of two:
// bucket i covers values in (2^((i-1)/histSub), 2^(i/histSub)]. Eight
// sub-buckets per octave bound the relative quantile error at 2^(1/8)
// (about +9%) — tight enough for p50/p95/p99 latency columns — while an
// Observe stays two atomic adds and an integer log: no locks, no floats on
// the hot path until the value leaves the first 64 exact buckets.
const (
	histSub     = 8
	histBuckets = 64 * histSub // covers every positive int64
)

// A Histogram records a distribution of non-negative int64 observations
// (durations in nanoseconds, stream sizes in records) in log-spaced
// buckets. It is safe for concurrent use; Observe never blocks. Use a
// Registry to expose one, or newHistogram for a standalone measurement
// (the bench sweeps).
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histBuckets]atomic.Int64
	ex     atomic.Pointer[exemplarSet] // allocated on first ObserveExemplar
}

// An exemplar links one observation in a bucket to the trace that produced
// it — how a p99 /metrics bucket points straight at a stored span tree.
type exemplar struct {
	TraceID string
	Value   int64 // the raw observed value
}

// exemplarSet holds the latest exemplar per bucket. It is allocated lazily
// so histograms on untraced deployments pay one nil pointer, not 512.
type exemplarSet struct {
	slot [histBuckets]atomic.Pointer[exemplar]
}

// newHistogram returns an unregistered histogram.
func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket: the smallest i with
// upperBound(i) >= v. Values <= 1 land in bucket 0.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := int(math.Ceil(math.Log2(float64(v)) * histSub))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// upperBound returns bucket i's inclusive upper bound in raw units.
func upperBound(i int) float64 {
	return math.Pow(2, float64(i)/histSub)
}

// Observe records one value. Negative values clamp to zero (they would be
// a caller bug — a wall clock running backwards — not worth failing over).
// Count is written before the bucket so a concurrent Snapshot never sees
// more bucketed observations than its Count — which keeps the exposed
// cumulative buckets monotone up to the +Inf (= Count) sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket[bucketIndex(v)].Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty, tags
// the value's bucket with a {trace_id} exemplar (last writer wins — the
// freshest trace is the most likely to still be in the ring buffer). With
// an empty traceID it is exactly Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	es := h.ex.Load()
	if es == nil {
		es = new(exemplarSet)
		if !h.ex.CompareAndSwap(nil, es) {
			es = h.ex.Load()
		}
	}
	es.slot[bucketIndex(v)].Store(&exemplar{TraceID: traceID, Value: v})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// A histSnapshot is a point-in-time copy of a histogram, safe to render
// without racing further observations. Buckets copied while
// writers run may briefly disagree with Count by the in-flight
// observations; the snapshot is internally consistent enough for
// monitoring (each bucket value is a real count that was current when
// copied).
type histSnapshot struct {
	Count     int64
	Sum       int64
	Bucket    [histBuckets]int64
	Exemplars []*exemplar // per-bucket, nil when the series has none
}

// Snapshot copies the histogram's current state. Buckets load before
// Count (and Observe writes them in the opposite order), so Count is
// always >= the bucket total: the exposed cumulative series stays monotone.
func (h *Histogram) snapshot() histSnapshot {
	var s histSnapshot
	for i := range h.bucket {
		s.Bucket[i] = h.bucket[i].Load()
	}
	if es := h.ex.Load(); es != nil {
		s.Exemplars = make([]*exemplar, histBuckets)
		for i := range es.slot {
			s.Exemplars[i] = es.slot[i].Load()
		}
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// add folds another series' snapshot into s: counts, sums and buckets add;
// the exemplars are those of the first series that has any.
func (s *histSnapshot) add(o histSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i, c := range o.Bucket {
		s.Bucket[i] += c
	}
	if s.Exemplars == nil {
		s.Exemplars = o.Exemplars
	}
}
