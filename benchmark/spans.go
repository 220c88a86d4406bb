package main

import "time"

// A span is one timed call into the system, recorded by the benchmark's own
// code. Spans of one latency op share a root (Parent 0).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Round   int    `json:"round"`
}

// A tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced rounds run the same code.
type tracer struct {
	epoch time.Time
	round int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.epoch)), Round: t.round})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNs = int64(time.Since(t.epoch))
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Children of one parent never overlap here: the loops that
// record them are sequential.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNs - s.StartNs
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered[s.ID])
	}
	return self
}
