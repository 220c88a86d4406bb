// Bulkupdate: the paper's future-work extension (§6) — bulk copy-paste
// updates with approximate provenance.
//
// A curator imports every citation from a bibliography database into her
// curated database with one bulk statement. Tracking it naively would cost
// one provenance record per node; the approximate store records a single
// XPath-style pattern
//
//	Prov(t, C, MyDB/refs/*, Bib/*)
//
// and answers "may/cannot have come from" questions afterwards.
//
// Run with: go run ./examples/bulkupdate
package main

import (
	"context"
	"fmt"
	"log"

	cpdb "repro"

	"repro/internal/approx"
	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/tree"
)

func main() {
	bib := tree.NewTree()
	for i := 1; i <= 200; i++ {
		entry := tree.Build(tree.M{
			"title": fmt.Sprintf("Provenance considerations, part %d", i),
			"year":  fmt.Sprint(1990 + i%30),
			"pmid":  fmt.Sprint(10000000 + i),
		})
		bib.AddChild(fmt.Sprintf("ref{%d}", i), entry)
	}

	forest := tree.NewForest()
	forest.AddDB("Bib", bib)
	forest.AddDB("MyDB", tree.Build(tree.M{"refs": tree.M{}}))

	// The bulk statement: for every entry of Bib, copy it under
	// MyDB/refs with the same label.
	bulk := approx.BulkCopy{
		Src: path.MustParsePattern("Bib/*"),
		Dst: path.MustParsePattern("MyDB/refs/*"),
	}
	ops, err := bulk.Expand(forest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk statement expands to %d copy operations\n", len(ops))

	// Exact tracking for comparison (transactional — the paper notes it
	// is "most natural" for bulk updates, since per-op transactions would
	// negate query optimization).
	exact := provstore.MustNew(provstore.Transactional, provstore.Config{
		Backend: provstore.NewMemBackend(),
	})
	if err := exact.Begin(); err != nil {
		log.Fatal(err)
	}
	for _, op := range ops {
		eff, err := op.Effect(forest)
		if err != nil {
			log.Fatal(err)
		}
		if err := op.Apply(forest); err != nil {
			log.Fatal(err)
		}
		if err := exact.OnCopy(eff); err != nil {
			log.Fatal(err)
		}
	}
	tid, err := exact.Commit()
	if err != nil {
		log.Fatal(err)
	}

	// Approximate store: one record for the whole statement.
	astore := approx.NewStore()
	if err := astore.Append(bulk.Record(tid)); err != nil {
		log.Fatal(err)
	}

	st, _ := exact.Backend().Stat(context.Background())
	fmt.Printf("exact transactional provenance: %d records\n", st.Count)
	fmt.Printf("approximate provenance:         %d record (%s)\n\n",
		astore.Count(), astore.All()[0])

	// Queries on the approximate store.
	loc := cpdb.MustParsePath("MyDB/refs/ref{42}/title")
	fmt.Printf("may %s have come from somewhere? %v\n", loc, astore.MayComeFrom(tid, loc))
	fmt.Printf("cannot it have come from OMIM/600046? %v\n",
		astore.CannotComeFrom(tid, loc, cpdb.MustParsePath("OMIM/600046")))
	fmt.Printf("cannot it have come from Bib/ref{42}/title? %v (it may!)\n",
		astore.CannotComeFrom(tid, loc, cpdb.MustParsePath("Bib/ref{42}/title")))

	// Soundness check against the exact store, record by record.
	recs, _ := provstore.CollectScan(exact.Backend().Scan(context.Background(), provstore.ByTid(tid)))
	excluded := 0
	for _, r := range recs {
		if astore.CannotComeFrom(tid, r.Loc, r.Src) {
			excluded++
		}
	}
	fmt.Printf("\nexact links wrongly excluded by the approximation: %d of %d\n", excluded, len(recs))
	fmt.Println("(0 = the approximation is sound; it trades precision, never truth)")

	fmt.Println("\nthe approximate answer is a pattern, not a location — the paper's")
	fmt.Println("\"acceptable price to pay to store simple provenance information")
	fmt.Println("much more efficiently for bulk updates\"")
}
