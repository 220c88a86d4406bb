package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/netsim"
	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/provtest"
	"repro/internal/update"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"
)

// fixture builds an editor over xmlstore-backed wrappers for the Figure 3/4
// scenario.
func fixture(t *testing.T, m provstore.Method, autoCommit int) (*core.Editor, *xmlstore.Store) {
	t.Helper()
	target := xmlstore.NewMem("T", figures.T0())
	ed, err := core.NewEditor(core.Config{
		Target: wrapper.NewXMLTarget(target),
		Sources: []wrapper.Source{
			wrapper.NewXMLTarget(xmlstore.NewMem("S1", figures.S1())),
			wrapper.NewXMLTarget(xmlstore.NewMem("S2", figures.S2())),
		},
		Tracker: provstore.MustNew(m, provstore.Config{
			Backend:  provstore.NewMemBackend(),
			StartTid: figures.FirstTid,
		}),
		AutoCommitEvery: autoCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ed, target
}

func TestEditorConfigValidation(t *testing.T) {
	if _, err := core.NewEditor(core.Config{}); err == nil {
		t.Error("missing target should error")
	}
	tr := provstore.MustNew(provstore.Naive, provstore.Config{Backend: provstore.NewMemBackend()})
	if _, err := core.NewEditor(core.Config{Target: wrapper.NewXMLTarget(xmlstore.NewMem("T", nil))}); err == nil {
		t.Error("missing tracker should error")
	}
	// A source shadowing the target is rejected.
	_, err := core.NewEditor(core.Config{
		Target:  wrapper.NewXMLTarget(xmlstore.NewMem("T", nil)),
		Sources: []wrapper.Source{wrapper.NewXMLTarget(xmlstore.NewMem("T", nil))},
		Tracker: tr,
	})
	if err == nil {
		t.Error("shadowing source should error")
	}
}

// TestEditorRunsFigure3 is the end-to-end path: script through editor,
// wrappers, store and tracker; target, mirror and provenance all agree
// with the paper's figures.
func TestEditorRunsFigure3(t *testing.T) {
	ed, target := fixture(t, provstore.HierTrans, 0)
	n, err := ed.ApplySequence(figures.Sequence())
	if err != nil {
		t.Fatalf("op %d: %v", n, err)
	}
	tid, err := ed.Commit()
	if err != nil || tid != figures.FirstTid {
		t.Fatalf("Commit = %d, %v", tid, err)
	}
	// The real store holds T'.
	if !target.Snapshot().Equal(figures.TPrime()) {
		t.Errorf("store != T': %s", target.Snapshot())
	}
	// The mirror agrees with the store.
	if !ed.TargetView().Equal(target.Snapshot()) {
		t.Error("mirror diverged from store")
	}
	// Provenance matches Figure 5(d): 7 rows.
	st, _ := ed.Tracker().Backend().Stat(context.Background())
	cnt := st.Count
	if cnt != len(figures.Fig5d) {
		t.Errorf("stored %d rows, want %d", cnt, len(figures.Fig5d))
	}
	if ed.TotalOps() != 10 {
		t.Errorf("TotalOps = %d", ed.TotalOps())
	}
}

// TestEditorMatchesReferenceDriver: the editor and the provtest reference
// driver must produce identical provenance for the same sequence.
func TestEditorMatchesReferenceDriver(t *testing.T) {
	for _, m := range provstore.AllMethods {
		ed, _ := fixture(t, m, 5)
		if _, err := ed.ApplySequence(figures.Sequence()); err != nil {
			t.Fatal(err)
		}
		if _, err := ed.Commit(); err != nil && !errors.Is(err, provstore.ErrNoTxn) {
			t.Fatal(err)
		}
		ref := provstore.MustNew(m, provstore.Config{
			Backend:  provstore.NewMemBackend(),
			StartTid: figures.FirstTid,
		})
		f := figures.Forest()
		if _, err := provtest.Run(ref, f, figures.Sequence(), 5); err != nil {
			t.Fatal(err)
		}
		got, _ := provtest.AllSorted(ed.Tracker().Backend())
		want, _ := provtest.AllSorted(ref.Backend())
		if len(got) != len(want) {
			t.Fatalf("%v: editor %d rows, reference %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Errorf("%v: row %d: editor %v, reference %v", m, i, got[i], want[i])
			}
		}
	}
}

func TestEditorValidation(t *testing.T) {
	ed, _ := fixture(t, provstore.Naive, 0)
	// Writes must address the target.
	if err := ed.Insert(path.MustParse("S1"), "x", nil); !errors.Is(err, core.ErrNotTarget) {
		t.Errorf("insert into source: %v", err)
	}
	if err := ed.Delete(path.MustParse("S1/a1")); !errors.Is(err, core.ErrNotTarget) {
		t.Errorf("delete from source: %v", err)
	}
	if err := ed.Delete(path.MustParse("T")); !errors.Is(err, core.ErrNotTarget) {
		t.Errorf("delete of target root: %v", err)
	}
	if err := ed.CopyPaste(path.MustParse("S1/a1"), path.MustParse("S2/b1")); !errors.Is(err, core.ErrNotTarget) {
		t.Errorf("copy into source: %v", err)
	}
	if err := ed.CopyPaste(path.MustParse("S9/a1"), path.MustParse("T/x")); !errors.Is(err, core.ErrUnknownDB) {
		t.Errorf("copy from unknown db: %v", err)
	}
	// Failed ops leave no trace.
	if err := ed.Delete(path.MustParse("T/nothing")); err == nil {
		t.Error("delete of missing node should fail")
	}
	st, _ := ed.Tracker().Backend().Stat(context.Background())
	cnt := st.Count
	if cnt != 0 {
		t.Errorf("failed ops stored %d records", cnt)
	}
}

func TestEditorCopyWithinTarget(t *testing.T) {
	ed, target := fixture(t, provstore.Naive, 0)
	if err := ed.CopyPaste(path.MustParse("T/c1"), path.MustParse("T/c9")); err != nil {
		t.Fatal(err)
	}
	if !target.Has(path.MustParse("T/c9/x")) {
		t.Error("intra-target copy missing")
	}
	recs, _ := provstore.CollectScan(ed.Tracker().Backend().Scan(context.Background(), provstore.ByTid(figures.FirstTid)))
	if len(recs) != 3 || recs[0].Src.DB() != "T" {
		t.Errorf("intra-target provenance: %v", recs)
	}
}

func TestAutoCommit(t *testing.T) {
	ed, _ := fixture(t, provstore.Transactional, 2)
	for i := 0; i < 5; i++ {
		label := string(rune('j' + i))
		if err := ed.Insert(path.MustParse("T"), label, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 5 ops with auto-commit every 2 → 2 commits done, 1 op pending.
	tids, _ := provstore.Tids(context.Background(), ed.Tracker().Backend())
	if len(tids) != 2 {
		t.Errorf("auto-commits = %v", tids)
	}
	if ed.Tracker().Pending() != 1 {
		t.Errorf("pending = %d", ed.Tracker().Pending())
	}
	if _, err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	tids, _ = provstore.Tids(context.Background(), ed.Tracker().Backend())
	if len(tids) != 3 {
		t.Errorf("after final commit: %v", tids)
	}
}

// TestMeterCategories: the editor attributes virtual time to the Figure 9
// categories.
func TestMeterCategories(t *testing.T) {
	clock := netsim.NewClock()
	meter := netsim.NewMeter(clock)
	targetConn := netsim.NewConn("target", clock, netsim.CostModel{RTT: 100 * time.Millisecond})
	provConn := netsim.NewConn("prov", clock, netsim.CostModel{RTT: 50 * time.Millisecond})

	backend := netsim.ChargeBackend(provstore.NewMemBackend(), provConn, provConn)
	ed, err := core.NewEditor(core.Config{
		Target: netsim.ChargeTarget(wrapper.NewXMLTarget(xmlstore.NewMem("T", figures.T0())), targetConn),
		Sources: []wrapper.Source{
			netsim.ChargeSource(wrapper.NewXMLTarget(xmlstore.NewMem("S1", figures.S1())), targetConn),
		},
		Tracker: provstore.MustNew(provstore.Naive, provstore.Config{Backend: backend}),
		Meter:   meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.Insert(path.MustParse("T"), "n1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ed.CopyPaste(path.MustParse("S1/a1"), path.MustParse("T/p1")); err != nil {
		t.Fatal(err)
	}
	if err := ed.Delete(path.MustParse("T/c5")); err != nil {
		t.Fatal(err)
	}
	if _, err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{core.MeterDatasetAdd, core.MeterDatasetPaste, core.MeterDatasetDelete,
		core.MeterSource, core.MeterAdd, core.MeterPaste, core.MeterDelete} {
		if meter.Bucket(cat).Count == 0 {
			t.Errorf("category %q unmeasured", cat)
		}
	}
	// Naive: prov-add is one 50ms round trip; dataset ops are 100ms.
	if got := meter.Bucket(core.MeterAdd).Avg(); got != 50*time.Millisecond {
		t.Errorf("prov-add avg = %v", got)
	}
	if got := meter.Bucket(core.MeterDatasetAdd).Avg(); got < 100*time.Millisecond {
		t.Errorf("dataset-add avg = %v", got)
	}
}

// TestConsistencyUnderFaults: when the provenance write fails, the editor
// compensates the dataset update, so target, mirror and provenance store
// remain mutually consistent (§1.3's core requirement).
func TestConsistencyUnderFaults(t *testing.T) {
	clock := netsim.NewClock()
	provConn := netsim.NewConn("prov", clock, netsim.CostModel{RTT: time.Millisecond})
	backend := netsim.ChargeBackend(provstore.NewMemBackend(), provConn, provConn)
	store := xmlstore.NewMem("T", figures.T0())
	ed, err := core.NewEditor(core.Config{
		Target: wrapper.NewXMLTarget(store),
		Sources: []wrapper.Source{
			wrapper.NewXMLTarget(xmlstore.NewMem("S1", figures.S1())),
		},
		Tracker: provstore.MustNew(provstore.Naive, provstore.Config{Backend: backend}),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := store.Snapshot()

	provConn.InjectFaults(1.0, 3)
	// Insert fails at tracking; dataset must be rolled back.
	if err := ed.Insert(path.MustParse("T"), "doomed", nil); !errors.Is(err, core.ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
	if !store.Snapshot().Equal(before) {
		t.Error("target not compensated after failed insert")
	}
	if !ed.TargetView().Equal(before) {
		t.Error("mirror not compensated after failed insert")
	}
	// Delete fails at tracking; the subtree must be restored.
	if err := ed.Delete(path.MustParse("T/c5")); !errors.Is(err, core.ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
	if !store.Snapshot().Equal(before) {
		t.Error("target not compensated after failed delete")
	}
	// Overwriting copy fails; the old subtree must be restored.
	if err := ed.CopyPaste(path.MustParse("S1/a1/y"), path.MustParse("T/c1/y")); !errors.Is(err, core.ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
	if !store.Snapshot().Equal(before) {
		t.Error("target not compensated after failed copy")
	}
	st, _ := backend.Inner().Stat(context.Background())
	cnt := st.Count
	if cnt != 0 {
		t.Errorf("provenance store has %d rows after failures", cnt)
	}
	// Recovery: disable faults, the same ops succeed.
	provConn.InjectFaults(0, 0)
	if err := ed.Insert(path.MustParse("T"), "ok", nil); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDispatch covers the op-type dispatcher.
func TestApplyDispatch(t *testing.T) {
	ed, _ := fixture(t, provstore.Naive, 0)
	ops := update.MustParseScript(`
		insert {z : 1} into T;
		copy S1/a2 into T/cz;
		delete z from T;
	`)
	for _, op := range ops {
		if err := ed.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if !ed.TargetView().HasChild("cz") || ed.TargetView().HasChild("z") {
		t.Error("dispatch results wrong")
	}
	type bogus struct{ update.Insert }
	var b update.Op = bogus{}
	if err := ed.Apply(b); err == nil {
		t.Error("unknown op type should error")
	}
}
