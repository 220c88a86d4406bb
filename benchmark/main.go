// Command benchmark is the repo's performance benchmark: four
// round-structured workloads (curate, query, drain, chain) that drive the
// system from outside — package cpdb's API, DSN strings and the real cpdbd
// and cpdb binaries — plus a DSN layer ladder and an A/A self-check. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

var workloadNames = []string{"curate", "query", "drain", "chain"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	ladder   bool
	aa       int
	runs     int
	out      string
}

func (o options) scale() scale {
	if o.quick {
		return quickScale
	}
	return fullScale
}

func parseFlags(args []string) (options, error) {
	// -trace works bare and with a value: the driver passes "--trace 0|1",
	// which the flag package cannot parse for a bool flag.
	var fixed []string
	for i, a := range args {
		fixed = append(fixed, a)
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			fixed = append(fixed, "1")
		}
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload: curate, query, drain or chain (default: all four)")
	fs.Int64Var(&o.seed, "seed", 2006, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "time budget of the timed rounds; the rounds themselves are fixed")
	fs.IntVar(&trace, "trace", 0, "1: record spans and print the per-layer metrics (runs the ladder too)")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test scale: seconds, not minutes; numbers mean nothing")
	fs.BoolVar(&o.ladder, "ladder", false, "run only the DSN layer ladder")
	fs.IntVar(&o.aa, "aa", 0, "A/A self-check: two interleaved sets of N runs of every workload")
	fs.IntVar(&o.runs, "runs", 0, "run N times in fresh processes and report medians")
	fs.StringVar(&o.out, "out", "", "with -aa or -runs: also write the report to this file")
	if err := fs.Parse(fixed); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = trace != 0
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run dispatches one invocation; ok is false when an output check failed or
// an A/A difference exceeded its bound.
func run(o options) (ok bool, err error) {
	switch {
	case o.aa > 0:
		return runAA(o)
	case o.runs > 0:
		return runRepeated(o)
	}
	e, err := newEnv()
	if err != nil {
		return false, err
	}
	defer e.close()
	if o.ladder {
		metrics, err := runLadder(e, o.seed, o.scale())
		if err != nil {
			return false, err
		}
		printMetrics("ladder", metrics)
		return true, printResult(result{Correct: true, Attempted: 1, Metrics: metrics})
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runWorkload(e, name, o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		printMetrics(name, res.Metrics)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	return total.Correct, printResult(total)
}

// printMetrics lists every metric by name with its unit, for people; the
// machine-readable result is the last line of standard output.
func printMetrics(section string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-8s %-42s %14.4f %s\n", section, k, metrics[k].Value, metrics[k].Unit)
	}
}

func printResult(r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// --- one workload ---------------------------------------------------------------

func newBench(e *env, name string, in *inputs, sc scale) bench {
	switch name {
	case "curate":
		return &curate{e: e, in: in}
	case "query":
		return &query{servedStore: servedStore{e: e, in: in}, counts: sc.queryTape}
	case "drain":
		return &drain{servedStore: servedStore{e: e, in: in}, drains: sc.drains, chunk: sc.chunk}
	default:
		return &chain{e: e, in: in, ops: in.history[:sc.chainOps], step: sc.chainStep}
	}
}

// runWorkload is one run of one workload: the set-up with one warm-up round
// (repeated; setup_s is the median), then identical timed rounds until the
// time budget is spent. With o.trace every other round records spans, and
// the per-layer metrics are reported instead of the end-to-end ones.
func runWorkload(e *env, name string, o options) (result, error) {
	sc := o.scale()
	in := genInputs(o.seed, sc.historyOps, sc.curateOps)
	w := newBench(e, name, in, sc)
	defer w.teardown()

	// Closed loop, one client: the generator of a wire workload runs on one
	// thread, the daemon and the in-process chain on up to two.
	procs := 1
	if name == "chain" {
		procs = e.procs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	res := result{Metrics: map[string]metric{}}
	count := func(rs roundStats) {
		res.Attempted += rs.attempted
		res.Failed += rs.failed
	}

	probe, err := newSpeedProbe()
	if err != nil {
		return res, err
	}
	defer probe.close()
	before, err := probe.read()
	if err != nil {
		return res, err
	}
	// since is how much slower than the reference state the machine ran
	// since the last call.
	since := func() (float64, error) {
		after, err := probe.read()
		slow := slowdown(before, after)
		before = after
		return slow, err
	}

	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		warm, err := w.round(nil)
		if err != nil {
			return res, fmt.Errorf("warm-up round: %w", err)
		}
		took := time.Since(t0).Seconds()
		slow, err := since()
		if err != nil {
			return res, err
		}
		setups = append(setups, took/slow)
		count(warm)
	}

	// Rounds are identical; the clock only decides how many of them run.
	minRounds := sc.minRounds
	var tr *tracer
	if o.trace {
		tr = newTracer()
		minRounds = max(minRounds, 4)
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var plain, traced []roundStats
	for r := 0; r < minRounds || (!o.quick && time.Now().Before(deadline)); r++ {
		var rt *tracer
		if o.trace && r%2 == 1 {
			rt, tr.round = tr, r
		}
		rs, err := w.round(rt)
		if err != nil {
			return res, fmt.Errorf("round %d: %w", r, err)
		}
		if rs.slow, err = since(); err != nil {
			return res, err
		}
		count(rs)
		if rt != nil {
			traced = append(traced, rs)
		} else {
			plain = append(plain, rs)
		}
	}
	if c, ok := w.(*curate); ok {
		rs, err := c.run(nil, true)
		if err != nil {
			return res, fmt.Errorf("durability probe: %w", err)
		}
		count(rs)
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(os.Stderr, "%-8s seed=%d rounds=%d latency_samples_per_round=%d units_per_round=%d attempted=%d failed=%d machine_slowdown=%.2f generator_gomaxprocs=%d daemon_gomaxprocs=%d nproc=%d %s\n",
		name, o.seed, len(plain), len(plain[0].lat), plain[0].units, res.Attempted, res.Failed, medianSlowdown(plain), procs, e.procs, runtime.NumCPU(), runtime.Version())

	if !o.trace {
		endToEnd(res.Metrics, median(setups), plain)
		return res, nil
	}
	layerMetrics(res.Metrics, plain, traced, tr)
	reopen := 0.0 // only chain's set-up has the restart probe
	if c, ok := w.(*chain); ok {
		reopen = median(c.probe)
	}
	res.Metrics["restart.verified_rel.open_ms"] = metric{reopen, "ms"}
	if err := writeTrace(e, name, tr, traced); err != nil {
		return res, err
	}
	ladder, err := runLadder(e, o.seed, sc)
	if err != nil {
		return res, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range ladder {
		res.Metrics[k] = v
	}
	return res, nil
}

// timings are a run's three timing values: the best quartile over rounds of
// the round's own value (throughput: upper quartile; latency: lower
// quartile), not the median. Whatever disturbs a round on this box only ever
// slows it down; the best quartile needs only a quarter of the rounds
// undisturbed and, unlike the single best round, still has several rounds
// beyond it.
//
// With adjust set every round's value is first divided by the slowdown the
// speed probe read around that round, so the result reads as it would in the
// machine's reference state (probe.go).
func timings(rounds []roundStats, adjust bool) (tput, p50, p90 float64) {
	var tputs, p50s, p90s []float64
	for _, rs := range rounds {
		slow := 1.0
		if adjust {
			slow = rs.slow
		}
		ms := millis(rs.lat)
		tputs = append(tputs, float64(rs.units)/rs.wall.Seconds()*slow)
		p50s = append(p50s, quantile(ms, 0.5)/slow)
		p90s = append(p90s, quantile(ms, 0.9)/slow)
	}
	return quantile(tputs, 0.75), quantile(p50s, 0.25), quantile(p90s, 0.25)
}

// medianSlowdown is the machine state the rounds ran in.
func medianSlowdown(rounds []roundStats) float64 {
	slows := make([]float64, len(rounds))
	for i, rs := range rounds {
		slows[i] = rs.slow
	}
	return median(slows)
}

// endToEnd fills the eight end-to-end metrics from the untraced rounds;
// setup is already adjusted.
func endToEnd(out map[string]metric, setup float64, rounds []roundStats) {
	var units int
	var alloc mem
	for _, rs := range rounds {
		units += rs.units
		alloc.Mallocs += rs.alloc.Mallocs
		alloc.TotalAlloc += rs.alloc.TotalAlloc
	}
	tput, p50, p90 := timings(rounds, true)
	last := rounds[len(rounds)-1]
	out["setup_s"] = metric{setup, "s"}
	out["throughput_per_s"] = metric{tput, "units/s"}
	out["op_ms_p50"] = metric{p50, "ms"}
	out["op_ms_p90"] = metric{p90, "ms"}
	out["allocs_per_unit"] = metric{float64(alloc.Mallocs) / float64(units), "allocs"}
	out["alloc_kb_per_unit"] = metric{float64(alloc.TotalAlloc) / 1e3 / float64(units), "KB"}
	out["heap_live_mb"] = metric{float64(last.alloc.HeapAlloc) / 1e6, "MB"}
	out["store_bytes_per_record"] = metric{float64(last.stored) / float64(last.records), "B"}
}
