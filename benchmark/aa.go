package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the self-check needs: each end-to-end
// metric's direction and the bound by which it may worsen.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(data, &sp)
}

// child runs this program again in a fresh process — as the driver does for
// every run — and returns the result it printed last.
func child(args ...string) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", strings.Join(args, " "), err)
	}
	return res, nil
}

func (o options) childArgs(extra ...string) []string {
	args := []string{"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.quick {
		args = append(args, "-quick")
	}
	return append(args, extra...)
}

// machine describes where a committed report was measured.
type machine struct {
	NumCPU          int    `json:"nproc"`
	Go              string `json:"go"`
	GeneratorProcs  int    `json:"generator_gomaxprocs_wire"`
	DaemonProcs     int    `json:"daemon_and_chain_gomaxprocs"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	Runs            int    `json:"runs"`
	Rounds          string `json:"rounds"`
	LatencySamples  string `json:"latency_samples_per_round"`
	TimingStatistic string `json:"timing_statistic"`
}

func (o options) machine(runs int) machine {
	sc := o.scale()
	return machine{
		NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		GeneratorProcs: 1, DaemonProcs: min(runtime.NumCPU(), 2),
		Seed: o.seed, Seconds: o.seconds, Runs: runs,
		Rounds: fmt.Sprintf("history %d ops; curate %d ops; query %v trace/hist/mod/select; drain %d drains; chain %d ops, a read every %d",
			sc.historyOps, sc.curateOps, sc.queryTape, sc.drains, sc.chainOps, sc.chainStep),
		LatencySamples: fmt.Sprintf("curate %d, query %d, drain about %d, chain %d",
			sc.curateOps/commitEvery, sc.queryTape[0]+sc.queryTape[1]+sc.queryTape[2]+sc.queryTape[3],
			sc.drains*(sc.historyOps/sc.chunk-1), sc.chainOps/sc.chainStep),
		TimingStatistic: "best quartile over rounds of the round's value divided by the speed probe's slowdown; counts are totals over rounds",
	}
}

// summary is one metric over several runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	return summary{unit, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), xs}
}

func writeReport(o options, doc any) error {
	if o.out == "" {
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}

// runRepeated is -runs N: N fresh-process runs of the selected workloads
// (or of the ladder) and the median of every metric — how the committed
// baselines are made.
func runRepeated(o options) (bool, error) {
	sections := workloadNames
	switch {
	case o.ladder:
		sections = []string{"ladder"}
	case o.workload != "":
		sections = []string{o.workload}
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	ok := true
	for i := 0; i < o.runs; i++ {
		for _, sec := range sections {
			args := o.childArgs("-workload", sec)
			if sec == "ladder" {
				args = o.childArgs("-ladder")
			} else if o.trace {
				args = append(args, "-trace", "1")
			}
			res, err := child(args...)
			if err != nil {
				return false, err
			}
			ok = ok && res.Correct
			if values[sec] == nil {
				values[sec] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[sec][k] = append(values[sec][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	doc := struct {
		Machine machine                       `json:"machine"`
		Metrics map[string]map[string]summary `json:"metrics"`
	}{o.machine(o.runs), map[string]map[string]summary{}}
	for sec, ms := range values {
		doc.Metrics[sec] = map[string]summary{}
		for k, xs := range ms {
			doc.Metrics[sec][k] = summarize(units[k], xs)
			fmt.Printf("%-8s %-42s %14.4f %s\n", sec, k, median(xs), units[k])
		}
	}
	return ok, writeReport(o, doc)
}

// runAA is the A/A self-check: two interleaved sets of N runs of the same
// tree. For every workload and end-to-end metric it prints both medians,
// the quartiles, how much worse the second set reads than the first, and
// the declared bound; any difference beyond its bound fails the check.
func runAA(o options) (bool, error) {
	root, err := moduleRoot()
	if err != nil {
		return false, err
	}
	sp, err := readSpec(root)
	if err != nil {
		return false, err
	}
	sets := [2]map[string][]float64{{}, {}}
	ok := true
	for i := 0; i < o.aa; i++ {
		for set := range sets {
			for _, name := range workloadNames {
				res, err := child(o.childArgs("-workload", name)...)
				if err != nil {
					return false, err
				}
				ok = ok && res.Correct
				for k, m := range res.Metrics {
					sets[set][name+"/"+k] = append(sets[set][name+"/"+k], m.Value)
				}
			}
		}
	}
	type row struct {
		A        summary `json:"a"`
		B        summary `json:"b"`
		WorsePct float64 `json:"b_worse_than_a_pct"`
		BoundPct float64 `json:"bound_pct"`
		Within   bool    `json:"within_bound"`
	}
	rows := map[string]row{}
	var keys []string
	for _, name := range workloadNames {
		for _, m := range sp.EndToEnd {
			key := name + "/" + m.Name
			a, b := summarize(m.Unit, sets[0][key]), summarize(m.Unit, sets[1][key])
			worse := (b.Median - a.Median) / a.Median
			if m.Better == "higher" {
				worse = -worse
			}
			r := row{a, b, 100 * worse, 100 * m.Bound, math.Abs(worse) <= m.Bound}
			ok = ok && r.Within
			rows[key] = r
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	fmt.Printf("%-34s %12s %12s %12s %12s %12s %12s %8s %7s\n", "workload/metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "B worse", "bound")
	for _, k := range keys {
		r := rows[k]
		flag := ""
		if !r.Within {
			flag = "  EXCEEDS"
		}
		fmt.Printf("%-34s %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f %7.1f%% %6.0f%%%s\n",
			k, r.A.Median, r.A.Q1, r.A.Q3, r.B.Median, r.B.Q1, r.B.Q3, r.WorsePct, r.BoundPct, flag)
	}
	doc := struct {
		Machine machine        `json:"machine"`
		Rows    map[string]row `json:"workload_metric"`
	}{o.machine(o.aa), rows}
	return ok, writeReport(o, doc)
}
