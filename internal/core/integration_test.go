package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/relprov"
	"repro/internal/relstore"
	"repro/internal/workload"
	"repro/internal/wrapper"
	"repro/internal/xmlstore"
)

// TestFullStackDiskBacked drives the complete paper deployment with every
// store on disk: a file-backed tree target (Timber stand-in), a relational
// source database (MySQL stand-in), and a relational provenance store —
// then closes everything, reopens from disk, and answers queries.
func TestFullStackDiskBacked(t *testing.T) {
	dir := t.TempDir()

	// Source: OrganelleDB in the relational engine.
	srcDB, err := relstore.Open(filepath.Join(dir, "organelle.rel"), true, false)
	if err != nil {
		t.Fatal(err)
	}
	srcCfg := dataset.OrganelleConfig{Proteins: 40, Seed: 11}
	if err := dataset.LoadOrganelleDB(srcDB, srcCfg); err != nil {
		t.Fatal(err)
	}
	source := wrapper.NewRelSource("OrganelleDB", srcDB)

	// Target: MiMI-like tree store persisted to a file.
	targetStore, err := xmlstore.Create("MiMI", filepath.Join(dir, "mimi.xdb"),
		dataset.GenMiMI(dataset.MiMIConfig{Entries: 25, MaxPTMs: 2, MaxCitations: 2, MaxInteracts: 2, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}

	// Provenance: relational store in a file.
	backend, err := relprov.OpenFile(filepath.Join(dir, "prov.rel"), relprov.Options{Create: true})
	if err != nil {
		t.Fatal(err)
	}

	ed, err := core.NewEditor(core.Config{
		Target:          wrapper.NewXMLTarget(targetStore),
		Sources:         []wrapper.Source{source},
		Tracker:         provstore.MustNew(provstore.HierTrans, provstore.Config{Backend: backend}),
		AutoCommitEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive a deterministic mixed workload through the editor.
	srcView, err := source.Tree()
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(workload.Config{
		Pattern:    workload.Mix,
		Seed:       17,
		TargetName: "MiMI",
		SourceName: "OrganelleDB",
	}, targetStore.Snapshot(), srcView)
	const ops = 250
	for i := 0; i < ops; i++ {
		if err := ed.Apply(gen.Next()); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
	if _, err := ed.Commit(); err != nil && !errors.Is(err, provstore.ErrNoTxn) {
		t.Fatal(err)
	}
	// The editor's mirror, the generator's mirror and the real store all
	// agree.
	if !ed.TargetView().Equal(targetStore.Snapshot()) {
		t.Fatal("editor mirror diverged from the store")
	}
	if !gen.TargetMirror().Equal(targetStore.Snapshot()) {
		t.Fatal("generator mirror diverged from the store")
	}
	st, _ := backend.Stat(context.Background())
	rows := st.Count
	if rows == 0 {
		t.Fatal("no provenance stored")
	}

	// Persist and close everything.
	if err := targetStore.Close(); err != nil {
		t.Fatal(err)
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srcDB.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk and answer queries.
	backend2, err := relprov.OpenFile(filepath.Join(dir, "prov.rel"), relprov.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer backend2.Close()
	st2, _ := backend2.Stat(context.Background())
	rows2 := st2.Count
	if rows2 != rows {
		t.Fatalf("rows after reopen: %d vs %d", rows2, rows)
	}
	target2, err := xmlstore.Open("MiMI", filepath.Join(dir, "mimi.xdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer target2.Close()

	if st2.MaxTid == 0 {
		t.Fatalf("MaxTid = %d", st2.MaxTid)
	}
	// Every copied location present in the final target must trace to the
	// source database.
	tids, _ := provstore.Tids(context.Background(), backend2)
	traced := 0
	for _, tid := range tids {
		recs, _ := provstore.CollectScan(backend2.Scan(context.Background(), provstore.ByTid(tid)))
		for _, r := range recs {
			if r.Op != provstore.OpCopy || !r.Src.IsRoot() && r.Src.DB() != "OrganelleDB" {
				continue
			}
			rel, err := r.Loc.TrimPrefix(path.New("MiMI"))
			if err != nil || !target2.Snapshot().Has(rel) {
				continue // since deleted or overwritten
			}
			res, err := provplan.Collect(context.Background(), backend2, &provplan.Query{Op: provplan.OpTrace, Path: r.Loc.String()})
			if err != nil {
				t.Fatalf("trace %v: %v", r.Loc, err)
			}
			if tr := res.Trace; tr.Origin == provplan.OriginExternal && tr.External.DB() == "OrganelleDB" {
				traced++
			}
		}
	}
	if traced == 0 {
		t.Error("no surviving copy traced back to the source database")
	}
}
