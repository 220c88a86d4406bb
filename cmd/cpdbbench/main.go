// Command cpdbbench reruns the evaluation of Buneman, Chapman & Cheney
// (SIGMOD 2006): every table and figure of §4, plus the design-choice
// ablations, printing the rows/series behind each artifact. See
// EXPERIMENTS.md for the experiment ↔ figure mapping and how to read the
// output. What each layer of the stack costs in real time is measured by
// benchmark/ (go run ./benchmark -ladder), not here.
//
// Usage:
//
//	cpdbbench                  # run everything at paper scale
//	cpdbbench -exp fig7        # one experiment
//	cpdbbench -quick           # scaled-down sizes (seconds, for smoke runs)
//	cpdbbench -json out.json   # also write machine-readable results
//	cpdbbench -list            # list experiment ids
//	cpdbbench -steps-long 7000 # override the 14000-step runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
)

// jsonResult is one experiment's machine-readable output.
type jsonResult struct {
	Experiment string         `json:"experiment"`
	Title      string         `json:"title"`
	Seconds    float64        `json:"seconds"`
	Tables     []*bench.Table `json:"tables"`
}

// jsonReport is the -json FILE payload: run metadata plus every table's id,
// header and rows, so perf trajectories can be tracked across commits
// without scraping the text output.
type jsonReport struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Quick      bool         `json:"quick"`
	Seed       int64        `json:"seed"`
	StepsShort int          `json:"stepsShort"`
	StepsLong  int          `json:"stepsLong"`
	Results    []jsonResult `json:"results"`
}

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id to run (default: all)")
		quickFlag = flag.Bool("quick", false, "run at scaled-down sizes")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		short     = flag.Int("steps-short", 0, "override the 3500-step runs")
		long      = flag.Int("steps-long", 0, "override the 14000-step runs")
		seed      = flag.Int64("seed", 0, "override the workload seed")
		dir       = flag.String("dir", "", "scratch directory for store files")
		jsonOut   = flag.String("json", "", "write machine-readable results (JSON) to FILE")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	rc := bench.Full()
	if *quickFlag {
		rc = bench.Quick()
	}
	if *short > 0 {
		rc.StepsShort = *short
	}
	if *long > 0 {
		rc.StepsLong = *long
	}
	if *seed != 0 {
		rc.Seed = *seed
	}
	rc.Dir = *dir
	if rc.Dir == "" {
		tmp, err := os.MkdirTemp("", "cpdbbench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		rc.Dir = tmp
	}

	experiments := bench.All()
	if *exp != "" {
		e, ok := bench.Find(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", *exp))
		}
		experiments = []bench.Experiment{e}
	}
	report := jsonReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quickFlag,
		Seed:       rc.Seed,
		StepsShort: rc.StepsShort,
		StepsLong:  rc.StepsLong,
	}
	for _, e := range experiments {
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		start := time.Now()
		tabs, err := e.Run(rc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		for _, tb := range tabs {
			fmt.Println(tb)
		}
		report.Results = append(report.Results, jsonResult{
			Experiment: e.ID,
			Title:      e.Title,
			Seconds:    time.Since(start).Seconds(),
			Tables:     tabs,
		})
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cpdbbench: wrote %s\n", *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpdbbench:", err)
	os.Exit(1)
}
