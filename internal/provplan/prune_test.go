package provplan_test

import (
	"context"
	"iter"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
)

// scanLog wraps a backend and records the spec of every Scan it is asked
// for, so a test can count what a query cost in store scans.
type scanLog struct {
	provstore.Backend
	mu    sync.Mutex
	specs []string
}

func (s *scanLog) Scan(ctx context.Context, spec provstore.ScanSpec) iter.Seq2[provstore.Record, error] {
	s.mu.Lock()
	s.specs = append(s.specs, spec.String())
	s.mu.Unlock()
	return s.Backend.Scan(ctx, spec)
}

// foreignCopies is the fixture of a curated database T whose eight entries
// were each copied from a subtree of a source database S at transactions
// 3..10, with a field inserted under every second entry afterwards. With
// withSource, S's own provenance is stored too: S's subtrees inserted at
// transaction 1, and at transaction 2 S/s<i>/c copied from S/s<i-1>.
func foreignCopies(withSource bool) []provstore.Record {
	var recs []provstore.Record
	if withSource {
		for i := 0; i < 8; i++ {
			recs = append(recs, provstore.Record{Tid: 1, Op: provstore.OpInsert, Loc: path.New("S", "s"+strconv.Itoa(i))})
		}
		for i := 1; i < 8; i++ {
			recs = append(recs, provstore.Record{Tid: 2, Op: provstore.OpCopy,
				Loc: path.New("S", "s"+strconv.Itoa(i), "c"), Src: path.New("S", "s"+strconv.Itoa(i-1))})
		}
	}
	for i := 0; i < 8; i++ {
		tid := int64(3 + i)
		e := path.New("T", "e"+strconv.Itoa(i))
		recs = append(recs, provstore.Record{Tid: tid, Op: provstore.OpCopy, Loc: e, Src: path.New("S", "s"+strconv.Itoa(i))})
		if i%2 == 0 {
			recs = append(recs, provstore.Record{Tid: tid, Op: provstore.OpInsert, Loc: e.Child("note")})
		}
	}
	return recs
}

// appendByTid appends recs, which are in transaction order, one
// transaction per Append.
func appendByTid(t *testing.T, b provstore.Backend, recs []provstore.Record) {
	t.Helper()
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Tid == recs[i].Tid {
			j++
		}
		if err := b.Append(context.Background(), recs[i:j]); err != nil {
			t.Fatal(err)
		}
		i = j
	}
}

// pruneStores opens the three stores the pruning test runs over.
func pruneStores(t *testing.T) map[string]provstore.Backend {
	t.Helper()
	out := make(map[string]provstore.Backend)
	for name, dsn := range map[string]string{
		"mem":     "mem://",
		"sharded": "mem://?shards=4",
		"rel":     "rel://" + filepath.Join(t.TempDir(), "prov.rel") + "?create=1",
	} {
		b, err := provstore.OpenDSN(dsn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { provstore.Close(b) }) //nolint:errcheck // test teardown
		out[name] = b
	}
	return out
}

// TestModPrunesForeignRegions: mod T over a store that holds nothing of the
// source database S reads T's region (its subtree and ancestor selects) and
// asks the store once whether it holds anything of S — three scans, where
// visiting the eight S regions costs sixteen more. When S's provenance is
// stored, its regions are scanned and its transactions join the answer.
// Either way the answer is the unpruned walk's.
func TestModPrunesForeignRegions(t *testing.T) {
	ctx := context.Background()
	for _, withSource := range []bool{false, true} {
		for name, b := range pruneStores(t) {
			appendByTid(t, b, foreignCopies(withSource))
			log := &scanLog{Backend: b}
			res, err := provplan.Collect(ctx, log, &provplan.Query{Op: provplan.OpMod, Path: "T"})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := legacyMod(ctx, b, path.MustParse("T"), 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Tids, want) {
				t.Errorf("%s, S stored %v: mod T = %v, unpruned walk %v", name, withSource, res.Tids, want)
			}
			probe := provstore.ByPrefix(path.MustParse("S")).String()
			if !withSource {
				wantScans := []string{
					provstore.ByPrefix(path.MustParse("T")).Until(10).String(),
					provstore.WithAncestors(path.MustParse("T")).Until(10).String(),
					probe,
				}
				if !slices.Equal(log.specs, wantScans) {
					t.Errorf("%s: mod T scanned %v, want %v", name, log.specs, wantScans)
				}
				if len(res.Tids) != 8 || res.Tids[0] != 3 {
					t.Errorf("%s: mod T = %v, want transactions 3..10", name, res.Tids)
				}
				continue
			}
			if res.Tids[0] != 1 || res.Tids[1] != 2 {
				t.Errorf("%s: mod T = %v misses S's transactions 1 and 2", name, res.Tids)
			}
			if n := strings.Count(strings.Join(log.specs, " "), probe); n != 1 {
				t.Errorf("%s: S probed %d times, want once: %v", name, n, log.specs)
			}
			for i := 0; i < 8; i++ {
				// Region s<i> is the source of transaction i+3's copy, bounded before it.
				region := provstore.ByPrefix(path.New("S", "s"+strconv.Itoa(i))).Until(int64(i + 2)).String()
				if !slices.Contains(log.specs, region) {
					t.Errorf("%s: S region s%d never scanned: %v", name, i, log.specs)
				}
			}
		}
	}
}

// TestModAnalyzeDeterministic: mod -analyze over a sharded store lists the
// same operators in the same order on every run — the wave selects run one
// after another, so their operators register in wiring order. The source
// probe is an operator of its own, so the rows the access and probe
// operators pulled add up to Scanned.
func TestModAnalyzeDeterministic(t *testing.T) {
	ctx := context.Background()
	b := provstore.NewShardedMem(4)
	appendByTid(t, b, foreignCopies(true))
	var first []string
	for run := 0; run < 50; run++ {
		res, err := provplan.Collect(ctx, b, &provplan.Query{Op: provplan.OpMod, Path: "T", Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		var ops []string
		var pulled int64
		for _, op := range res.Analysis.Ops {
			ops = append(ops, op.Op)
			if strings.Contains(op.Op, "access:") || strings.HasPrefix(op.Op, "probe:") {
				pulled += op.In
			}
		}
		if !slices.Contains(ops, "probe:scan-loc-prefix") {
			t.Fatalf("run %d: no probe operator in %v", run, ops)
		}
		if pulled != res.Analysis.Scanned {
			t.Fatalf("run %d: access and probe operators pulled %d rows, Scanned = %d", run, pulled, res.Analysis.Scanned)
		}
		if run == 0 {
			first = ops
			continue
		}
		if !slices.Equal(ops, first) {
			t.Fatalf("run %d lists operators %v, run 0 listed %v", run, ops, first)
		}
	}
}
