package provobs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBucketIndexBounds(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, 1025,
		1_000_000, 123_456_789, math.MaxInt64 / 2, math.MaxInt64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if ub := upperBound(i); ub < float64(v)*(1-1e-9) {
			t.Errorf("bucketIndex(%d) = %d but upperBound %g < value", v, i, ub)
		}
		if v > 1 && i > 0 {
			if lb := upperBound(i - 1); lb >= float64(v)*(1+1e-9) {
				t.Errorf("value %d landed in bucket %d but previous bound %g already covers it", v, i, lb)
			}
		}
	}
	for _, v := range []int64{-5, 0, 1} {
		if got := bucketIndex(v); got != 0 {
			t.Errorf("bucketIndex(%d) = %d, want 0", v, got)
		}
	}
}

// TestConcurrentUpdates hammers a counter, gauge and histogram from many
// goroutines; exact totals must survive, and -race must stay quiet.
func TestConcurrentUpdates(t *testing.T) {
	const workers = 8
	const perWorker = 2000
	r := NewRegistry()
	c := r.Counter("cpdb_test_ops_total", "ops")
	g := r.Gauge("cpdb_test_level", "level")
	h := r.Histogram("cpdb_test_size", "sizes", UnitCount)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(w*perWorker + i))
				// Interleave snapshots with writers: cumulative buckets
				// must never exceed Count (exposition monotonicity).
				if i%500 == 0 {
					s := h.snapshot()
					total := int64(0)
					for _, b := range s.Bucket {
						total += b
					}
					if total > s.Count {
						t.Errorf("snapshot bucket total %d > count %d", total, s.Count)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	s := h.snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	total := int64(0)
	for _, b := range s.Bucket {
		total += b
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d after quiesce", total, s.Count)
	}
}

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf)$`)

// parseExposition parses Prometheus text output, failing the test on any
// malformed line, and returns sample-name → count of samples.
func parseExposition(t *testing.T, text string) map[string]int {
	t.Helper()
	seen := make(map[string]struct{})
	counts := make(map[string]int)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		full := m[1] + m[2]
		if _, dup := seen[full]; dup {
			t.Fatalf("duplicate sample: %q", full)
		}
		seen[full] = struct{}{}
		counts[m[1]]++
	}
	return counts
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cpdb_requests_total", "Requests served.")
	r.Counter("cpdb_errors_total", "Errors.", WithLabel("endpoint", "scan"))
	g := r.Gauge("cpdb_cursors_open", "Open cursors.")
	h := r.Histogram("cpdb_request_duration_seconds", "Latency.",
		UnitSeconds, WithLabel("endpoint", "query"))
	r.Histogram("cpdb_request_duration_seconds", "Latency.",
		UnitSeconds, WithLabel("endpoint", "append"))
	c.Add(7)
	g.Set(2)
	h.Observe(1_000_000_000) // 1s
	h.Observe(2_000_000_000) // 2s

	var b strings.Builder
	WritePrometheus(&b, r, nil)
	out := b.String()
	counts := parseExposition(t, out)

	if counts["cpdb_requests_total"] != 1 || counts["cpdb_errors_total"] != 1 {
		t.Errorf("counter sample counts wrong: %v", counts)
	}
	// The unobserved "append" histogram still carries bucket 0 plus +Inf.
	if counts["cpdb_request_duration_seconds_bucket"] < 4 {
		t.Errorf("expected bucket samples for both series, got %d", counts["cpdb_request_duration_seconds_bucket"])
	}
	if counts["cpdb_request_duration_seconds_count"] != 2 || counts["cpdb_request_duration_seconds_sum"] != 2 {
		t.Errorf("missing _sum/_count samples: %v", counts)
	}
	if !strings.Contains(out, `cpdb_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 2`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `cpdb_request_duration_seconds_sum{endpoint="query"} 3`) {
		t.Errorf("seconds sum not scaled from nanoseconds:\n%s", out)
	}
	// Cumulative buckets must be monotone within each series.
	monotone := make(map[string]int64)
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		name := line[:strings.Index(line, ",le=")]
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		if v < monotone[name] {
			t.Errorf("non-monotone cumulative bucket at %q", line)
		}
		monotone[name] = v
	}
	// HELP/TYPE appear exactly once per family.
	if n := strings.Count(out, "# TYPE cpdb_request_duration_seconds "); n != 1 {
		t.Errorf("TYPE line emitted %d times, want 1", n)
	}
}

func TestStatsMapAndDumpLines(t *testing.T) {
	r := NewRegistry()
	req := r.Counter("cpdb_requests_total", "Requests.", WithStatKey("requests"))
	r.Gauge("cpdb_cursors_open", "Cursors.", WithStatKey("cursors_open"))
	r.Counter("cpdb_hidden_total", "No stat key.")
	r.Histogram("cpdb_latency_seconds", "Latency.", UnitSeconds, WithStatKey("ignored"))
	req.Add(5)

	extra := NewRegistry()
	extra.GaugeFunc("cpdb_repl_lag_tids", "Lag.", func() int64 { return 0 }, WithStatKey("repl.lag.0"))
	extra.CounterFunc("cpdb_extra_total", "Extra.", func() int64 { return 9 }, WithStatKey("extra"))
	m := Stats(r, extra)
	want := map[string]int64{"requests": 5, "cursors_open": 0, "repl.lag.0": 0, "extra": 9}
	if len(m) != len(want) {
		t.Fatalf("StatsMap = %v, want %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("StatsMap[%q] = %d, want %d", k, m[k], v)
		}
	}

	lines := DumpLines(map[string]int64{
		"requests":        0, // zero, elided
		"errors":          2,
		"cursors_open":    0, // zero but always dumped
		"endpoint.append": 0, // zero, elided
		"repl.lag.0":      0, // repl.* always dumped
		"auth.proofs":     0, // auth.* always dumped
	})
	got := strings.Join(lines, "\n")
	wantLines := "auth.proofs=0\ncursors_open=0\nerrors=2\nrepl.lag.0=0"
	if got != wantLines {
		t.Errorf("DumpLines =\n%s\nwant\n%s", got, wantLines)
	}
}

// TestSnapshotsAddAcrossRegistries pins the one merge rule: the same flat
// key, or the same family and label set, registered in several registries
// (one per shard) is one number — scalars and histograms alike.
func TestSnapshotsAddAcrossRegistries(t *testing.T) {
	var regs []*Registry
	for shard := int64(1); shard <= 3; shard++ {
		r := NewRegistry()
		r.Counter("cpdb_reads_total", "Reads.", WithStatKey("reads")).Add(shard)
		r.GaugeFunc("cpdb_size", "Size.", func() int64 { return 10 * shard }, WithStatKey("size"))
		r.Histogram("cpdb_wait_seconds", "Wait.", UnitSeconds).Observe(shard * 1_000_000_000)
		regs = append(regs, r)
	}
	if m := Stats(regs...); m["reads"] != 6 || m["size"] != 60 || len(m) != 2 {
		t.Errorf("Stats over three shards = %v, want reads=6 size=60", m)
	}
	var b strings.Builder
	WritePrometheus(&b, regs...)
	out := b.String()
	parseExposition(t, out) // fails on a duplicate series
	for _, want := range []string{
		"cpdb_reads_total 6\n", "cpdb_size 60\n",
		"cpdb_wait_seconds_count 3\n", "cpdb_wait_seconds_sum 6\n",
		`cpdb_wait_seconds_bucket{le="+Inf"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("cpdb_a_total", "A.")
	mustPanic("kind mismatch", func() { r.Gauge("cpdb_a_total", "A.") })
	mustPanic("help mismatch", func() { r.Counter("cpdb_a_total", "Different.") })
	mustPanic("duplicate series", func() { r.Counter("cpdb_a_total", "A.") })
	// Same family, new label set: fine.
	r.Counter("cpdb_a_total", "A.", WithLabel("endpoint", "query"))
	mustPanic("duplicate labeled series", func() {
		r.Counter("cpdb_a_total", "A.", WithLabel("endpoint", "query"))
	})
}
