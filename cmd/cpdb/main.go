// Command cpdb is a small shell around one CPDB curation session: it loads
// tree databases from XML files (or demo fixtures), applies an update
// script through the provenance-aware editor, and answers provenance
// queries — the command-line analogue of the paper's Web interface.
//
// Usage:
//
//	cpdb -demo -script script.cpdb -query "hist T/c2/y"
//	cpdb -target T=target.xml -source S1=s1.xml -script updates.cpdb -dump
//
// Script syntax is the paper's Figure 3 form:
//
//	insert {c2 : {}} into T;
//	copy S1/a2 into T/c2;
//	delete c5 from T;
//
// Queries: "src PATH", "hist PATH", "mod PATH", "trace PATH".
package main

import (
	"flag"
	"fmt"
	"os"

	cpdb "repro"
)

func main() {
	var cfg cpdb.CLIConfig
	flag.BoolVar(&cfg.Demo, "demo", false, "use the paper's Figure 3/4 demo databases")
	flag.StringVar(&cfg.TargetSpec, "target", "", "target database as NAME=file.xml")
	flag.Var(&cfg.SourceSpecs, "source", "source database as NAME=file.xml (repeatable)")
	flag.StringVar(&cfg.Script, "script", "", "update script file ('-' for stdin)")
	flag.StringVar(&cfg.Method, "method", "HT", "provenance method: N, H, T, HT")
	flag.StringVar(&cfg.Backend, "backend", "", `provenance store DSN, e.g. "mem://?shards=8" or "rel://prov.db?create=1&durable=1"`)
	flag.IntVar(&cfg.CommitEvery, "commit-every", 5, "auto-commit every N operations (0 = manual)")
	flag.IntVar(&cfg.BatchSize, "batch", 1, "group-commit provenance appends in batches of N records")
	flag.Var(&cfg.Queries, "query", `provenance query, e.g. "hist T/c2/y" (repeatable)`)
	flag.BoolVar(&cfg.Analyze, "analyze", false, `EXPLAIN ANALYZE every "plan" query: print per-operator rows and timings`)
	flag.BoolVar(&cfg.Trace, "trace", false, `span-trace the queries and print the trace id; inspect with -query "traces ID" against a -trace-buffer daemon`)
	flag.BoolVar(&cfg.Dump, "dump", false, "dump the provenance table and final target")
	flag.Parse()

	if err := cpdb.RunCLI(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cpdb:", err)
		os.Exit(1)
	}
}
