package cpdb_test

// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure runs the corresponding experiment at a reduced,
// deterministic scale and reports its headline numbers as custom metrics
// (rows, virtual milliseconds); absolute Go ns/op measures the simulator
// itself, not the paper's testbed. `cmd/cpdbbench` runs the same
// experiments at full paper scale.
//
// The Ablation* benchmarks measure the design choices called out in
// DESIGN.md §5 (A1–A4).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	cpdb "repro"

	"repro/internal/bench"
	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/relstore"
	"repro/internal/update"
	"repro/internal/workload"
)

// benchConfig returns a deterministic small-scale run configuration.
func benchConfig(b *testing.B) bench.RunConfig {
	b.Helper()
	rc := bench.Quick()
	rc.Dir = b.TempDir()
	return rc
}

// reportCell parses a numeric table cell into a named benchmark metric.
func reportCell(b *testing.B, tb *bench.Table, row, col int, name string) {
	b.Helper()
	s := tb.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "MB")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric", row, col, tb.Rows[row][col])
	}
	b.ReportMetric(v, name)
}

func runExperiment(b *testing.B, f func(bench.RunConfig) ([]*bench.Table, error)) []*bench.Table {
	b.Helper()
	rc := benchConfig(b)
	var tabs []*bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tabs, err = f(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tabs
}

// BenchmarkTable1 regenerates the experiment matrix (Table 1).
func BenchmarkTable1(b *testing.B) {
	tabs := runExperiment(b, bench.Table1)
	b.ReportMetric(float64(len(tabs[0].Rows)), "experiments")
}

// BenchmarkTable2 regenerates the update patterns (Table 2).
func BenchmarkTable2(b *testing.B) {
	tabs := runExperiment(b, bench.Table2)
	b.ReportMetric(float64(len(tabs[0].Rows)), "patterns")
}

// BenchmarkTable3 regenerates the deletion patterns (Table 3).
func BenchmarkTable3(b *testing.B) {
	tabs := runExperiment(b, bench.Table3)
	b.ReportMetric(float64(len(tabs[0].Rows)), "patterns")
}

// BenchmarkFig5 regenerates the worked example's provenance tables.
func BenchmarkFig5(b *testing.B) {
	tabs := runExperiment(b, bench.Fig5)
	// Rows of tables (a)–(d): 16, 13, 10, 7.
	for i, tb := range tabs {
		b.ReportMetric(float64(len(tb.Rows)), fmt.Sprintf("rows_5%c", 'a'+i))
	}
}

// BenchmarkFig7 regenerates the 3500-step storage experiment (Figure 7).
func BenchmarkFig7(b *testing.B) {
	tabs := runExperiment(b, bench.Fig7)
	tb := tabs[0]
	// Copy-pattern row: N and HT record counts.
	reportCell(b, tb, 2, 1, "copy_rows_N")
	reportCell(b, tb, 2, 4, "copy_rows_HT")
}

// BenchmarkFig8 regenerates the 14000-step storage experiment (Figure 8).
func BenchmarkFig8(b *testing.B) {
	tabs := runExperiment(b, bench.Fig8)
	tb := tabs[0]
	reportCell(b, tb, 0, 1, "mix_rows_N")
	reportCell(b, tb, 0, 7, "mix_rows_HT")
}

// BenchmarkFig9 regenerates the per-operation timing experiment (Figure 9).
func BenchmarkFig9(b *testing.B) {
	tabs := runExperiment(b, bench.Fig9)
	tb := tabs[0]
	reportCell(b, tb, 0, 1, "dataset_vms")
	reportCell(b, tb, 0, 2, "N_add_vms")
	reportCell(b, tb, 3, 5, "HT_commit_vms")
}

// BenchmarkFig10 regenerates the overhead-percentage experiment (Figure 10).
func BenchmarkFig10(b *testing.B) {
	tabs := runExperiment(b, bench.Fig10)
	tb := tabs[0]
	reportCell(b, tb, 0, 3, "N_copy_pct")
	reportCell(b, tb, 3, 3, "HT_copy_pct")
}

// BenchmarkFig11 regenerates the deletion-pattern experiment (Figure 11).
func BenchmarkFig11(b *testing.B) {
	tabs := runExperiment(b, bench.Fig11)
	tb := tabs[0]
	reportCell(b, tb, 0, 2, "delrandom_N_acd")
	reportCell(b, tb, 0, 8, "delrandom_HT_acd")
}

// BenchmarkFig12 regenerates the transaction-length experiment (Figure 12).
func BenchmarkFig12(b *testing.B) {
	rc := benchConfig(b)
	rc.StepsShort = 2100
	var tabs []*bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tabs, err = bench.Fig12(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	tb := tabs[0]
	reportCell(b, tb, 0, 4, "commit_len7_vms")
	reportCell(b, tb, len(tb.Rows)-1, 4, "commit_len1000_vms")
}

// BenchmarkFig13 regenerates the query-time experiment (Figure 13).
func BenchmarkFig13(b *testing.B) {
	tabs := runExperiment(b, bench.Fig13)
	tb := tabs[0]
	// Aligned rows (4..7): N and T getHist.
	reportCell(b, tb, 4, 5, "N_getHist_vms")
	reportCell(b, tb, 6, 5, "T_getHist_vms")
	reportCell(b, tb, 4, 4, "N_getMod_vms")
}

// --- ablation benchmarks ------------------------------------------------

// BenchmarkAblation_InferOnTheFly (A1): resolving one location's effective
// provenance through on-the-fly hierarchical inference, vs expanding the
// transaction's full Prov view first.
func BenchmarkAblation_InferOnTheFly(b *testing.B) {
	tr := provstore.MustNew(provstore.HierTrans, provstore.Config{
		Backend:  provstore.NewMemBackend(),
		StartTid: figures.FirstTid,
	})
	f := figures.Forest()
	vs, err := provtest.Run(tr, f, figures.Sequence(), 0)
	if err != nil {
		b.Fatal(err)
	}
	loc := path.MustParse("T/c3/y") // inferred from the copy at T/c3
	b.Run("on-the-fly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := provstore.Effective(context.Background(), tr.Backend(), figures.FirstTid, loc); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		recs, _ := provtest.AllSorted(tr.Backend())
		for i := 0; i < b.N; i++ {
			full, err := provstore.ExpandTxn(recs, vs[0].Forest, vs[1].Forest)
			if err != nil {
				b.Fatal(err)
			}
			found := false
			for _, r := range full {
				if r.Loc.Equal(loc) {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("row missing")
			}
		}
	})
}

// BenchmarkAblation_Provlist (A2): the deferred tracker's net-effect
// pruning vs naive per-node tracking on a churn-heavy sequence.
func BenchmarkAblation_Provlist(b *testing.B) {
	seq := update.MustParseScript(`
		copy S1/a3 into T/tmp;
		delete tmp from T;
		copy S2/b2 into T/keep;
		insert {k : {}} into T/keep;
		delete k from T/keep;
	`)
	for _, m := range []provstore.Method{provstore.Transactional, provstore.Naive} {
		b.Run(m.LongName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := provstore.MustNew(m, provstore.Config{Backend: provstore.NewMemBackend()})
				f := figures.Forest()
				if _, err := provtest.Run(tr, f, seq, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Index (A3): point lookup through the (Tid, Loc) B+tree
// primary key vs an unindexed scan over the same rows — the paper ran its
// query experiment unindexed ("worst-case behavior").
func BenchmarkAblation_Index(b *testing.B) {
	dir := b.TempDir()
	db, err := relstore.Open(dir+"/a3.rel", true, false)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(relstore.TableSchema{
		Name: "prov",
		Columns: []relstore.Column{
			{Name: "tid", Type: relstore.TInt},
			{Name: "loc", Type: relstore.TStr},
			{Name: "op", Type: relstore.TStr},
		},
		Key: []string{"tid", "loc"},
	})
	if err != nil {
		b.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tbl.Insert(relstore.Row{int64(i / 5), fmt.Sprintf("T/c%d", i), "C"}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("btree-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tbl.Get(int64((i%n)/5), fmt.Sprintf("T/c%d", i%n)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("heap-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			want := fmt.Sprintf("T/c%d", i%n)
			found := false
			tbl.Scan(func(r relstore.Row) bool {
				if r[1].(string) == want {
					found = true
					return false
				}
				return true
			})
			if !found {
				b.Fatal("row missing")
			}
		}
	})
}

// BenchmarkAblation_RedundantLinks (A4): HT commit with and without
// redundant-link elimination on a nested-copy transaction (§3.2.4).
func BenchmarkAblation_RedundantLinks(b *testing.B) {
	seq := update.MustParseScript(`
		copy S1/a3 into T/r;
		copy S1/a3/x into T/r/x;
		copy S1/a3/y into T/r/y;
	`)
	for _, elim := range []bool{false, true} {
		b.Run(fmt.Sprintf("eliminate=%v", elim), func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				tr := provstore.MustNew(provstore.HierTrans, provstore.Config{
					Backend:            provstore.NewMemBackend(),
					EliminateRedundant: elim,
				})
				f := figures.Forest()
				if _, err := provtest.Run(tr, f, seq, 0); err != nil {
					b.Fatal(err)
				}
				st, _ := tr.Backend().Stat(context.Background())
				rows = st.Count
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// --- microbenchmarks of the core machinery -------------------------------

// BenchmarkTrackerOps measures raw per-operation tracking cost by method.
func BenchmarkTrackerOps(b *testing.B) {
	for _, m := range provstore.AllMethods {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			tr := provstore.MustNew(m, provstore.Config{Backend: provstore.NewMemBackend()})
			tr.Begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loc := path.New("T", fmt.Sprintf("n%d", i))
				if err := tr.OnInsert(update.Effect{Inserted: []path.Path{loc}}); err != nil {
					b.Fatal(err)
				}
				if (i+1)%5 == 0 {
					if _, err := tr.Commit(); err != nil {
						b.Fatal(err)
					}
					tr.Begin()
				}
			}
		})
	}
}

// BenchmarkQueries measures the three provenance queries over a populated
// store (in-process cost; Figure 13 prices the same calls in virtual time).
func BenchmarkQueries(b *testing.B) {
	rc := bench.Quick()
	seq := bench.MakeSequence(rc, workload.Real, workload.DelRandom, 700)
	tr := provstore.MustNew(provstore.HierTrans, provstore.Config{Backend: provstore.NewMemBackend()})
	f := bench.WorkloadForest(rc)
	if _, err := provtest.Run(tr, f, seq, 7); err != nil {
		b.Fatal(err)
	}
	st, _ := tr.Backend().Stat(context.Background())
	var locs []path.Path
	// Collect probe locations from stored records (guaranteed touched).
	recs, _ := provtest.AllSorted(tr.Backend())
	for _, r := range recs {
		locs = append(locs, r.Loc)
	}
	if len(locs) == 0 {
		b.Fatal("no locations")
	}
	for _, op := range []string{provplan.OpSrc, provplan.OpHist, provplan.OpMod} {
		b.Run(op, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := &provplan.Query{Op: op, Path: locs[i%len(locs)].String(), AsOf: st.MaxTid}
				if _, err := provplan.Collect(context.Background(), tr.Backend(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// queryStore opens dsn, fills it with tids transactions of 20 records each
// and returns it with the locations to ask about. Transaction t writes
// T/e<t>/n<i>, copied from transaction t-1's entry except every eighth, which
// inserts — so a trace walks a chain of up to eight steps — and every other
// question is about a child of a stored location, which only hierarchical
// inference can answer. With a source database named, every entry is
// instead copied from the same place under it, and the store holds nothing
// of that database — the shape of the benchmark's histories, where a mod's
// source regions lie outside the store.
func queryStore(tb testing.TB, dsn string, tids int, source string) (cpdb.Backend, []path.Path) {
	tb.Helper()
	backend, err := cpdb.OpenBackend(dsn)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { provstore.Close(backend) }) //nolint:errcheck // scratch store
	entry := func(tid int) path.Path { return path.MustParse("T").Child("e" + strconv.Itoa(tid)) }
	var locs []path.Path
	for tid := 1; tid <= tids; tid++ {
		recs := make([]provstore.Record, 0, 20)
		for i := 0; i < 20; i++ {
			r := provstore.Record{Tid: int64(tid), Op: provstore.OpInsert, Loc: entry(tid).Child("n" + strconv.Itoa(i))}
			switch {
			case source != "":
				r.Op, r.Src = provstore.OpCopy, path.MustParse(source).Child("e"+strconv.Itoa(tid)).Child("n"+strconv.Itoa(i))
			case tid%8 != 1:
				r.Op, r.Src = provstore.OpCopy, entry(tid-1).Child("n"+strconv.Itoa(i))
			}
			recs = append(recs, r)
			if i%2 == 1 {
				locs = append(locs, r.Loc.Child("x"))
			} else {
				locs = append(locs, r.Loc)
			}
		}
		if err := backend.Append(context.Background(), recs); err != nil {
			tb.Fatal(err)
		}
	}
	return backend, locs
}

// relQuery is the i-th question of kind (trace, hist, mod, or a bounded
// select) over locs, asked "as of now" so the store resolves the horizon —
// what a daemon does for every remote query.
func relQuery(kind string, locs []path.Path, i int) *provplan.Query {
	p := locs[i%len(locs)]
	switch kind {
	case provplan.OpMod:
		p = p.Prefix(2)
	case "select":
		return provplan.MustParse("select where loc>=" + p.Prefix(2).String() + " order loc-tid limit 50")
	}
	return &provplan.Query{Op: kind, Path: p.String()}
}

// BenchmarkRelQueries is BenchmarkQueries over the relational engine: the
// small-answer read path (horizon, index cursors, row decode) of a rel://
// store holding 10k records. allocs/op and B/op must track the answer, not
// the relation; TestRelTraceAllocBound pins that. mod-foreign asks mod of a
// store whose every entry was copied from a database it holds nothing of.
// drain is one full Scan(All()) of the 10k records: its allocs/op counts
// windows and cursors, not rows (TestRelDrainAllocBound).
func BenchmarkRelQueries(b *testing.B) {
	backend, locs := queryStore(b, "rel://"+b.TempDir()+"/prov.db?create=1", 500, "")
	foreign, foreignLocs := queryStore(b, "rel://"+b.TempDir()+"/foreign.db?create=1", 500, "S")
	ctx := context.Background()
	for _, kind := range []string{provplan.OpTrace, provplan.OpHist, provplan.OpMod, "select", "mod-foreign"} {
		store, at, ask := backend, locs, kind
		if kind == "mod-foreign" {
			store, at, ask = foreign, foreignLocs, provplan.OpMod
		}
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := provplan.Collect(ctx, store, relQuery(ask, at, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("drain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, err := range backend.Scan(ctx, provstore.All()) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// appendTxns is the write load of BenchmarkRelAppend: n records in
// transactions of ten, one tid each, at random locs T/kNN/rNNNN/fN (distinct
// within a transaction), a third of them copies of a random S/kNN/rNNNN.
func appendTxns(n int) [][]provstore.Record {
	rng := rand.New(rand.NewSource(2006))
	var txns [][]provstore.Record
	for tid := int64(1); len(txns)*10 < n; tid++ {
		txn := make([]provstore.Record, 0, 10)
		seen := map[string]bool{}
		for len(txn) < 10 {
			loc := fmt.Sprintf("T/k%02d/r%04d/f%d", rng.Intn(40), rng.Intn(10000), rng.Intn(5))
			if seen[loc] {
				continue
			}
			seen[loc] = true
			r := provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: path.MustParse(loc)}
			if rng.Intn(3) == 0 {
				r.Op, r.Src = provstore.OpCopy, path.MustParse(fmt.Sprintf("S/k%02d/r%04d", rng.Intn(40), rng.Intn(10000)))
			}
			txn = append(txn, r)
		}
		txns = append(txns, txn)
	}
	return txns
}

// BenchmarkRelAppend is the write path of an in-process rel:// store: 10 000
// records appended to a fresh store in 10-record Appends (appendTxns). One
// op is the whole load; ns/record and allocs/record are per record appended,
// opening and closing the store excluded. Durable adds a log and one
// GroupCommit per Append, as a daemon's durable=1 store does.
func BenchmarkRelAppend(b *testing.B) { benchRelAppend(b, "") }

func BenchmarkRelAppendDurable(b *testing.B) { benchRelAppend(b, "&durable=1") }

func benchRelAppend(b *testing.B, params string) {
	txns := appendTxns(10000)
	ctx := context.Background()
	var elapsed time.Duration
	var mallocs uint64
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		backend, err := cpdb.OpenBackend("rel://" + b.TempDir() + "/prov.db?create=1" + params)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		t0 := time.Now()
		for _, txn := range txns {
			if err := backend.Append(ctx, txn); err != nil {
				b.Fatal(err)
			}
		}
		elapsed += time.Since(t0)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if err := provstore.Close(backend); err != nil {
			b.Fatal(err)
		}
	}
	records := float64(b.N * len(txns) * 10)
	b.ReportMetric(float64(elapsed.Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(mallocs)/records, "allocs/record")
}

// BenchmarkMemQueries is BenchmarkRelQueries over the in-memory store and its
// four-shard form, at 1k, 10k and 100k records. Every question has an answer
// of the same few records at every size, so ns/op must stay level as the
// store grows: a read costs its answer, not the relation.
func BenchmarkMemQueries(b *testing.B) {
	ctx := context.Background()
	for _, dsn := range []string{"mem://", "mem://?shards=4"} {
		for _, tids := range []int{50, 500, 5000} {
			backend, locs := queryStore(b, dsn, tids, "")
			// The same 320 questions at every size: the newest 16
			// transactions, whose chains are as long in every store.
			locs = locs[len(locs)-320:]
			for _, kind := range []string{provplan.OpTrace, provplan.OpHist, provplan.OpMod, "select"} {
				b.Run(fmt.Sprintf("%s/recs=%d/%s", dsn, 20*tids, kind), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := provplan.Collect(ctx, backend, relQuery(kind, locs, i)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkEditorPipeline measures one fully tracked editor operation.
func BenchmarkEditorPipeline(b *testing.B) {
	s, err := cpdb.New(cpdb.Config{
		Target:          cpdb.NewMemTarget("T", figures.T0()),
		Sources:         []cpdb.Source{cpdb.NewMemSource("S1", figures.S1())},
		Method:          cpdb.HierTrans,
		AutoCommitEvery: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(cpdb.MustParsePath("T"), fmt.Sprintf("b%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}
