package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanNames is every span the workloads record: one root per latency op
// (txn, query, drain, step) and its phases. A workload reports 0 for the
// spans it never records.
var spanNames = []string{
	"txn", "step", "apply", "commit",
	"query", "trace", "hist", "mod", "select",
	"drain", "first_chunk", "stream",
}

// layerMetrics fills the per-workload layer metrics from a run whose rounds
// alternated untraced (plain) and traced: per-span self time per unit, how
// much of the traced rounds' wall time the spans cover, what tracing cost,
// and the wire layer's server-busy and client-self time from the daemon's
// /metrics deltas taken at the same boundaries.
func layerMetrics(out map[string]metric, plain, traced []roundStats, tr *tracer) {
	var units int
	var wall time.Duration
	var sv served
	sv.ok = true
	for _, rs := range traced {
		units += rs.units
		wall += rs.wall
		sv.requests += rs.served.requests
		sv.busy += rs.served.busy
		sv.ok = sv.ok && rs.served.ok
	}
	self := tr.selfTimes()
	var covered, roots time.Duration
	for _, name := range spanNames {
		covered += self[name]
		out["span."+name+".self_us_per_unit"] = metric{float64(self[name]) / 1e3 / float64(units), "us"}
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots += time.Duration(s.EndNs - s.StartNs)
		}
	}
	out["span.coverage_pct"] = metric{100 * float64(covered) / float64(wall), "%"}

	tput := func(rounds []roundStats) float64 {
		var xs []float64
		for _, rs := range rounds {
			xs = append(xs, float64(rs.units)/rs.wall.Seconds())
		}
		return median(xs)
	}
	out["trace_overhead_pct"] = metric{100 * (tput(plain) - tput(traced)) / tput(plain), "%"}

	// The timings as the clock read them, and the slowdown the end-to-end
	// metrics were adjusted by, so that both readings stay on record.
	rawTput, rawP50, rawP90 := timings(plain, false)
	out["machine.slowdown"] = metric{medianSlowdown(plain), "ratio"}
	out["raw.throughput_per_s"] = metric{rawTput, "units/s"}
	out["raw.op_ms_p50"] = metric{rawP50, "ms"}
	out["raw.op_ms_p90"] = metric{rawP90, "ms"}

	// A workload without a daemon, or a daemon without the series, reports 0.
	busy, requests, client := 0.0, 0.0, 0.0
	if sv.ok {
		busy = sv.busy * 1e6 / float64(units)
		requests = sv.requests / float64(units)
		client = float64(roots)/1e3/float64(units) - busy
	}
	out["provhttp.server.busy_us_per_unit"] = metric{busy, "us"}
	out["provhttp.requests_per_unit"] = metric{requests, "count"}
	out["provhttp.client.self_us_per_unit"] = metric{client, "us"}
}

// writeTrace writes the spans, and the /metrics deltas taken at the round
// boundaries, to benchmark/out/trace-W.json.
func writeTrace(e *env, name string, tr *tracer, traced []roundStats) error {
	type roundDelta struct {
		Units       int     `json:"units"`
		WallNs      int64   `json:"wall_ns"`
		Requests    float64 `json:"server_requests"`
		BusySeconds float64 `json:"server_busy_seconds"`
	}
	doc := struct {
		Workload string       `json:"workload"`
		Rounds   []roundDelta `json:"traced_rounds"`
		Spans    []span       `json:"spans"`
	}{Workload: name, Spans: tr.spans}
	for _, rs := range traced {
		doc.Rounds = append(doc.Rounds, roundDelta{rs.units, int64(rs.wall), rs.served.requests, rs.served.busy})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}
