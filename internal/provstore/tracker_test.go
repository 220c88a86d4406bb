package provstore_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/tree"
	"repro/internal/update"
)

func newTracker(t *testing.T, m provstore.Method) provstore.Tracker {
	t.Helper()
	return provstore.MustNew(m, provstore.Config{Backend: provstore.NewMemBackend()})
}

func TestNewValidation(t *testing.T) {
	if _, err := provstore.New(provstore.Naive, provstore.Config{}); err == nil {
		t.Error("missing backend should error")
	}
	if _, err := provstore.New(provstore.Method(42), provstore.Config{Backend: provstore.NewMemBackend()}); err == nil {
		t.Error("unknown method should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on error")
		}
	}()
	provstore.MustNew(provstore.Naive, provstore.Config{})
}

func TestTxnStateMachine(t *testing.T) {
	for _, m := range provstore.AllMethods {
		tr := newTracker(t, m)
		if _, err := tr.Commit(); !errors.Is(err, provstore.ErrNoTxn) {
			t.Errorf("%v: commit without begin: %v", m, err)
		}
		eff := update.Effect{Inserted: []path.Path{path.MustParse("T/a")}}
		if err := tr.OnInsert(eff); !errors.Is(err, provstore.ErrNoTxn) {
			t.Errorf("%v: op without begin: %v", m, err)
		}
		if err := tr.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Begin(); !errors.Is(err, provstore.ErrOpenTxn) {
			t.Errorf("%v: double begin: %v", m, err)
		}
		if err := tr.OnInsert(eff); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMalformedEffects(t *testing.T) {
	for _, m := range provstore.AllMethods {
		tr := newTracker(t, m)
		tr.Begin()
		if err := tr.OnInsert(update.Effect{}); err == nil {
			t.Errorf("%v: empty insert effect accepted", m)
		}
		if err := tr.OnDelete(update.Effect{}); err == nil {
			t.Errorf("%v: empty delete effect accepted", m)
		}
		if err := tr.OnCopy(update.Effect{}); err == nil {
			t.Errorf("%v: empty copy effect accepted", m)
		}
	}
}

func TestPendingCounts(t *testing.T) {
	tr := newTracker(t, provstore.Transactional)
	tr.Begin()
	tr.OnInsert(update.Effect{Inserted: []path.Path{path.MustParse("T/a")}})
	tr.OnInsert(update.Effect{Inserted: []path.Path{path.MustParse("T/b")}})
	if tr.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", tr.Pending())
	}
	tid, err := tr.Commit()
	if err != nil || tid == 0 {
		t.Fatalf("Commit = %d, %v", tid, err)
	}
	if tr.Pending() != 0 {
		t.Error("Pending must reset after commit")
	}
	st, _ := tr.Backend().Stat(context.Background())
	n := st.Count
	if n != 2 {
		t.Errorf("stored %d records", n)
	}
	// Immediate trackers never buffer.
	ntr := newTracker(t, provstore.Naive)
	ntr.Begin()
	ntr.OnInsert(update.Effect{Inserted: []path.Path{path.MustParse("T/a")}})
	if ntr.Pending() != 0 {
		t.Error("naive tracker must not buffer")
	}
}

func TestEmptyCommit(t *testing.T) {
	tr := newTracker(t, provstore.HierTrans)
	tr.Begin()
	tid, err := tr.Commit()
	if err != nil || tid == 0 {
		t.Fatalf("empty commit = %d, %v", tid, err)
	}
	if st, _ := tr.Backend().Stat(context.Background()); st.Count != 0 {
		t.Error("empty commit must store nothing")
	}
}

// script runs a textual script against the figures fixture forest under the
// given method in one transaction and returns the sorted stored rows.
func script(t *testing.T, m provstore.Method, src string) []string {
	t.Helper()
	tr := newTracker(t, m)
	f := figures.Forest()
	if _, err := provtest.Run(tr, f, update.MustParseScript(src), 0); err != nil {
		t.Fatal(err)
	}
	recs, err := provtest.AllSorted(tr.Backend())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.String()
	}
	return out
}

// TestTransactionalNetsOutTemporaries reproduces the paper's motivating
// example for transactional provenance: "if the user copies data from S1,
// then on further reflection deletes it and uses data from S2 instead, and
// finally commits, this has the same effect on provenance as if the user had
// only copied the data from S2".
func TestTransactionalNetsOutTemporaries(t *testing.T) {
	src := `
		copy S1/a2 into T/tmp;
		delete tmp from T;
		copy S2/b2 into T/keep;
	`
	for _, m := range []provstore.Method{provstore.Transactional, provstore.HierTrans} {
		rows := script(t, m, src)
		for _, r := range rows {
			if strings.Contains(r, "S1") || strings.Contains(r, "tmp") {
				t.Errorf("%v: temporary data leaked into provenance: %v", m, rows)
			}
		}
		if len(rows) == 0 || !strings.Contains(rows[0], "S2/b2") {
			t.Errorf("%v: final copy missing: %v", m, rows)
		}
	}
	// Naïve, by contrast, retains the full history.
	rows := script(t, provstore.Naive, src)
	joined := strings.Join(rows, "\n")
	if !strings.Contains(joined, "S1/a2") || !strings.Contains(joined, "D T/tmp") {
		t.Errorf("naive lost history: %v", rows)
	}
}

// TestDeleteThenRecreate: deleting pre-existing data and re-inserting at the
// same location within one transaction must net to an insert (the {Tid,Loc}
// key admits one row per location), and deleting it again must restore the
// shadowed delete.
func TestDeleteThenRecreate(t *testing.T) {
	for _, m := range []provstore.Method{provstore.Transactional, provstore.HierTrans} {
		rows := script(t, m, `
			delete c1 from T;
			insert {c1 : {}} into T;
		`)
		found := false
		for _, r := range rows {
			if strings.Contains(r, "I T/c1") {
				found = true
			}
			if r == "1 D T/c1 ⊥" {
				t.Errorf("%v: conflicting D row at recreated location: %v", m, rows)
			}
		}
		if !found {
			t.Errorf("%v: missing I row: %v", m, rows)
		}

		rows = script(t, m, `
			delete c1 from T;
			insert {c1 : {}} into T;
			delete c1 from T;
		`)
		wantD := false
		for _, r := range rows {
			if r == "1 D T/c1 ⊥" {
				wantD = true
			}
			if strings.Contains(r, "I T/c1") {
				t.Errorf("%v: phantom insert survived: %v", m, rows)
			}
		}
		if !wantD {
			t.Errorf("%v: shadowed delete not restored: %v", m, rows)
		}
	}
}

// TestOverwriteThenDelete: a copy overwriting pre-existing data followed by
// a delete of the copied data must net to a delete of the original.
func TestOverwriteThenDelete(t *testing.T) {
	for _, m := range []provstore.Method{provstore.Transactional, provstore.HierTrans} {
		rows := script(t, m, `
			copy S1/a2 into T/c1;
			delete c1 from T;
		`)
		if len(rows) == 0 {
			t.Errorf("%v: overwritten-then-deleted original left no D row", m)
			continue
		}
		hasRootD := false
		for _, r := range rows {
			if r == "1 D T/c1 ⊥" {
				hasRootD = true
			}
			if strings.Contains(r, " C ") {
				t.Errorf("%v: dead copy link survived: %v", m, rows)
			}
		}
		if !hasRootD {
			t.Errorf("%v: missing root delete: %v", m, rows)
		}
	}
}

// TestHierarchicalInsertInference: children inserted under a node inserted
// in the same (deferred) transaction need no explicit record.
func TestHierTransInsertInference(t *testing.T) {
	rows := script(t, provstore.HierTrans, `
		insert {c9 : {}} into T;
		insert {k : {}} into T/c9;
		insert {v : 3} into T/c9/k;
	`)
	if len(rows) != 1 || rows[0] != "1 I T/c9 ⊥" {
		t.Errorf("inference failed: %v", rows)
	}
	// Transactional (non-hierarchical) stores all three.
	rows = script(t, provstore.Transactional, `
		insert {c9 : {}} into T;
		insert {k : {}} into T/c9;
		insert {v : 3} into T/c9/k;
	`)
	if len(rows) != 3 {
		t.Errorf("transactional should store 3 rows: %v", rows)
	}
}

// TestHierarchicalImmediateCounts verifies the paper's storage bound: an
// update sequence U has a hierarchical table with at most |U| entries.
func TestHierarchicalImmediateCounts(t *testing.T) {
	tr := newTracker(t, provstore.Hierarchical)
	f := figures.Forest()
	seq := figures.Sequence()
	if _, err := provtest.RunPerOp(tr, f, seq); err != nil {
		t.Fatal(err)
	}
	st, _ := tr.Backend().Stat(context.Background())
	n := st.Count
	if n > len(seq) {
		t.Errorf("|HProv| = %d > |U| = %d", n, len(seq))
	}
}

// TestRedundantLinkElimination exercises §3.2.4's optional check with the
// paper's own example: copy S/a to T/a then S/a/b to T/a/b.
func TestRedundantLinkElimination(t *testing.T) {
	src := `
		copy S1/a3 into T/r;
		copy S1/a3/y into T/r/y;
	`
	// Default: the redundant second link is kept.
	rows := script(t, provstore.HierTrans, src)
	if len(rows) != 2 {
		t.Errorf("default HT should keep redundant link: %v", rows)
	}
	// With elimination on, only the root link survives.
	tr := provstore.MustNew(provstore.HierTrans, provstore.Config{
		Backend:            provstore.NewMemBackend(),
		EliminateRedundant: true,
	})
	f := figures.Forest()
	if _, err := provtest.Run(tr, f, update.MustParseScript(src), 0); err != nil {
		t.Fatal(err)
	}
	recs, _ := provtest.AllSorted(tr.Backend())
	if len(recs) != 1 || recs[0].Loc.String() != "T/r" {
		t.Errorf("elimination failed: %v", recs)
	}
	// An inconsistent second copy is NOT redundant and must be kept.
	tr2 := provstore.MustNew(provstore.HierTrans, provstore.Config{
		Backend:            provstore.NewMemBackend(),
		EliminateRedundant: true,
	})
	f2 := figures.Forest()
	inconsistent := update.MustParseScript(`
		copy S1/a3 into T/r;
		copy S2/b3/y into T/r/y;
	`)
	if _, err := provtest.Run(tr2, f2, inconsistent, 0); err != nil {
		t.Fatal(err)
	}
	recs2, _ := provtest.AllSorted(tr2.Backend())
	if len(recs2) != 2 {
		t.Errorf("inconsistent link wrongly eliminated: %v", recs2)
	}
}

// --- randomized net-effect property tests -------------------------------

// randomOps generates a valid random update sequence against the forest,
// mutating a scratch clone to keep ops applicable.
func randomOps(r *rand.Rand, f *tree.Forest, n int) update.Sequence {
	scratch := f.Clone()
	var seq update.Sequence
	targetPaths := func() []path.Path {
		var out []path.Path
		scratch.DB("T").Walk(func(rel path.Path, _ *tree.Node) error {
			out = append(out, path.New("T").Join(rel))
			return nil
		})
		return out
	}
	srcPaths := func() []path.Path {
		var out []path.Path
		scratch.DB("S1").Walk(func(rel path.Path, node *tree.Node) error {
			if !rel.IsRoot() {
				out = append(out, path.New("S1").Join(rel))
			}
			return nil
		})
		return out
	}
	fresh := 0
	for len(seq) < n {
		var op update.Op
		tp := targetPaths()
		switch r.Intn(3) {
		case 0: // insert
			parent := tp[r.Intn(len(tp))]
			if node, _ := scratch.Get(parent); node.IsLeaf() {
				continue
			}
			fresh++
			label := fmt.Sprintf("n%d", fresh)
			op = update.Insert{Into: parent, Label: label}
		case 1: // delete
			// Pick a non-root node of T.
			var cands []path.Path
			for _, p := range tp {
				if p.Len() >= 2 {
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				continue
			}
			victim := cands[r.Intn(len(cands))]
			op = update.Delete{From: victim.MustParent(), Label: victim.Base()}
		default: // copy
			sp := srcPaths()
			src := sp[r.Intn(len(sp))]
			var parents []path.Path
			for _, p := range tp {
				if node, _ := scratch.Get(p); !node.IsLeaf() {
					parents = append(parents, p)
				}
			}
			parent := parents[r.Intn(len(parents))]
			var dst path.Path
			if r.Intn(2) == 0 && parent.Len() >= 2 {
				dst = parent // overwrite an existing location
			} else {
				fresh++
				dst = parent.Child(fmt.Sprintf("c%d", fresh))
			}
			if dst.Len() < 2 {
				continue
			}
			op = update.Copy{Src: src, Dst: dst}
		}
		if err := op.Apply(scratch); err != nil {
			continue
		}
		seq = append(seq, op)
	}
	return seq
}

// locSet returns the set of absolute location strings of database T.
func locSet(f *tree.Forest) map[string]bool {
	out := make(map[string]bool)
	f.DB("T").Walk(func(rel path.Path, _ *tree.Node) error {
		if !rel.IsRoot() {
			out[path.New("T").Join(rel).String()] = true
		}
		return nil
	})
	return out
}

// TestNetEffectInvariants drives random sequences through the deferred
// trackers and checks the net-change invariants of transactional provenance
// against pre/post snapshots of every transaction.
func TestNetEffectInvariants(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, m := range []provstore.Method{provstore.Transactional, provstore.HierTrans} {
			r := rand.New(rand.NewSource(seed))
			f := figures.Forest()
			seq := randomOps(r, f, 25)
			tr := newTracker(t, m)
			vs, err := provtest.Run(tr, f, seq, 5)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, m, err)
			}
			for i := 1; i < len(vs); i++ {
				pre, post := locSet(vs[i-1].Forest), locSet(vs[i].Forest)
				recs, err := provstore.CollectScan(tr.Backend().Scan(context.Background(), provstore.ByTid(vs[i].Tid)))
				if err != nil {
					t.Fatal(err)
				}
				checkNetInvariants(t, seed, m, recs, pre, post)
			}
		}
	}
}

func checkNetInvariants(t *testing.T, seed int64, m provstore.Method, recs []provstore.Record, pre, post map[string]bool) {
	t.Helper()
	hasRec := make(map[string]provstore.OpKind, len(recs))
	for _, r := range recs {
		loc := r.Loc.String()
		if _, dup := hasRec[loc]; dup {
			t.Errorf("seed %d %v: duplicate loc %s in one txn", seed, m, loc)
		}
		hasRec[loc] = r.Op
		switch r.Op {
		case provstore.OpDelete:
			// Every D row names a location present before and absent after.
			if !pre[loc] {
				t.Errorf("seed %d %v: D row for never-existing %s", seed, m, loc)
			}
			if post[loc] {
				t.Errorf("seed %d %v: D row for live location %s", seed, m, loc)
			}
		case provstore.OpInsert, provstore.OpCopy:
			// Every I/C row names a location present after the txn.
			if !post[loc] {
				t.Errorf("seed %d %v: %s row for dead location %s", seed, m, r.Op, loc)
			}
		}
	}
	// coveredBy reports whether loc or an ancestor has a record of kind k.
	coveredBy := func(loc string, kinds ...provstore.OpKind) bool {
		p := path.MustParse(loc)
		for n := p.Len(); n >= 1; n-- {
			if op, ok := hasRec[p.Prefix(n).String()]; ok {
				for _, k := range kinds {
					if op == k {
						return true
					}
				}
				// The nearest record decides.
				return false
			}
		}
		return false
	}
	// Every created location is covered by an I or C record at itself or
	// its nearest recorded ancestor.
	for loc := range post {
		if !pre[loc] && !coveredBy(loc, provstore.OpInsert, provstore.OpCopy) {
			t.Errorf("seed %d %v: created %s not covered by I/C", seed, m, loc)
		}
	}
	// Every vanished location is covered by a D record, or lies under a
	// location that was wholesale replaced/deleted (nearest recorded
	// ancestor is D or C).
	for loc := range pre {
		if !post[loc] && !coveredBy(loc, provstore.OpDelete, provstore.OpCopy) {
			t.Errorf("seed %d %v: vanished %s not covered by D/C", seed, m, loc)
		}
	}
}

// TestHTExpandsToT: on random workloads, expanding each HT transaction
// through the §2.1.3 view must yield the same relation as the transactional
// tracker run over the same sequence, transaction for transaction.
func TestHTExpandsToT(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		seqF := figures.Forest()
		seq := randomOps(r, seqF, 25)

		fT := figures.Forest()
		trT := newTracker(t, provstore.Transactional)
		vsT, err := provtest.Run(trT, fT, seq, 5)
		if err != nil {
			t.Fatal(err)
		}
		fH := figures.Forest()
		trH := newTracker(t, provstore.HierTrans)
		vsH, err := provtest.Run(trH, fH, seq, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(vsT) != len(vsH) {
			t.Fatalf("seed %d: version count mismatch", seed)
		}
		for i := 1; i < len(vsH); i++ {
			hrecs, _ := provstore.CollectScan(trH.Backend().Scan(context.Background(), provstore.ByTid(vsH[i].Tid)))
			expanded, err := provstore.ExpandTxn(hrecs, vsH[i-1].Forest, vsH[i].Forest)
			if err != nil {
				t.Fatalf("seed %d txn %d: %v", seed, i, err)
			}
			trecs, _ := provstore.CollectScan(trT.Backend().Scan(context.Background(), provstore.ByTid(vsT[i].Tid)))
			if got, want := renderSet(expanded), renderSet(trecs); got != want {
				t.Errorf("seed %d txn %d:\nHT expanded:\n%s\nT stored:\n%s", seed, i, got, want)
			}
		}
	}
}

func renderSet(recs []provstore.Record) string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.String()
	}
	sortStrings(out)
	return strings.Join(out, "\n")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestHExpandsToN: per-op hierarchical expansion equals naive, on random
// workloads.
func TestHExpandsToN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		seqF := figures.Forest()
		seq := randomOps(r, seqF, 20)

		fN := figures.Forest()
		trN := newTracker(t, provstore.Naive)
		if _, err := provtest.RunPerOp(trN, fN, seq); err != nil {
			t.Fatal(err)
		}
		fH := figures.Forest()
		trH := newTracker(t, provstore.Hierarchical)
		vsH, err := provtest.RunPerOp(trH, fH, seq)
		if err != nil {
			t.Fatal(err)
		}
		var expanded []provstore.Record
		for i := 1; i < len(vsH); i++ {
			hrecs, _ := provstore.CollectScan(trH.Backend().Scan(context.Background(), provstore.ByTid(vsH[i].Tid)))
			ex, err := provstore.ExpandTxn(hrecs, vsH[i-1].Forest, vsH[i].Forest)
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			expanded = append(expanded, ex...)
		}
		nrecs, _ := provtest.AllSorted(trN.Backend())
		// Naive records deletions of overwritten copy destinations? No —
		// naive stores only the copy rows (Figure 5(a)); both sides agree.
		if got, want := renderSet(expanded), renderSet(nrecs); got != want {
			t.Errorf("seed %d:\nH expanded:\n%s\nN stored:\n%s", seed, got, want)
		}
	}
}

// TestStorageBoundHT verifies |HT| ≤ min(|U|, i+d+c) per transaction on
// random workloads (§2.1.4).
func TestStorageBoundHT(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed * 7919))
		seqF := figures.Forest()
		seq := randomOps(r, seqF, 25)

		fHT := figures.Forest()
		trHT := newTracker(t, provstore.HierTrans)
		vsHT, err := provtest.Run(trHT, fHT, seq, 5)
		if err != nil {
			t.Fatal(err)
		}
		fT := figures.Forest()
		trT := newTracker(t, provstore.Transactional)
		vsT, err := provtest.Run(trT, fT, seq, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(vsHT); i++ {
			ht, _ := provstore.CollectScan(trHT.Backend().Scan(context.Background(), provstore.ByTid(vsHT[i].Tid)))
			tt, _ := provstore.CollectScan(trT.Backend().Scan(context.Background(), provstore.ByTid(vsT[i].Tid)))
			opsInTxn := 5
			if len(ht) > opsInTxn {
				t.Errorf("seed %d txn %d: |HT|=%d > |U|=%d", seed, i, len(ht), opsInTxn)
			}
			if len(ht) > len(tt) {
				t.Errorf("seed %d txn %d: |HT|=%d > |T|=%d", seed, i, len(ht), len(tt))
			}
		}
	}
}
