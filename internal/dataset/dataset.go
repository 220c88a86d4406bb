// Package dataset generates the synthetic stand-ins for the paper's
// experimental databases:
//
//   - a MiMI-like protein-interaction target (the paper used a 27.3 MB copy
//     of MiMI stored in Timber), with molecule entries carrying nested PTM,
//     citation and interaction subtrees;
//   - an OrganelleDB-like source (the paper used 6 MB of OrganelleDB in
//     MySQL) of protein-localization records, each a parent with three leaf
//     fields — exactly the "subtrees of size four" the experiments copy.
//
// Generation is deterministic given the seed, so experiments are exactly
// repeatable. The biology is synthetic; the experiments depend only on the
// tree shapes and sizes.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/relstore"
	"repro/internal/tree"
)

// Deterministic vocabulary for plausible-looking identifiers.
var (
	organisms  = []string{"H.sapiens", "M.musculus", "S.cerevisiae", "D.melanogaster", "C.elegans", "A.thaliana"}
	organelles = []string{"nucleus", "mitochondrion", "golgi", "er", "cytosol", "peroxisome", "vacuole", "membrane"}
	ptmKinds   = []string{"phosphorylation", "glycosylation", "acetylation", "ubiquitination", "methylation"}
	journals   = []string{"NAR", "JBC", "Cell", "PNAS", "Bioinformatics"}
	geneSyll   = []string{"ab", "cd", "kin", "rho", "gly", "myo", "tub", "act", "pol", "hex"}
)

func geneName(r *rand.Rand, i int) string {
	return fmt.Sprintf("%s%s%d", geneSyll[r.Intn(len(geneSyll))], geneSyll[r.Intn(len(geneSyll))], i)
}

// MiMIConfig sizes the MiMI-like target.
type MiMIConfig struct {
	Entries      int // number of molecule entries
	MaxPTMs      int // PTM subtrees per entry (0..MaxPTMs)
	MaxCitations int // citation subtrees per entry
	MaxInteracts int // interaction references per entry
	Seed         int64
}

// DefaultMiMI is a laptop-scale default (a few thousand nodes); experiments
// scale Entries up.
var DefaultMiMI = MiMIConfig{Entries: 200, MaxPTMs: 3, MaxCitations: 3, MaxInteracts: 4, Seed: 1}

// GenMiMI builds the MiMI-like target tree: molecule{i} → {name, organism,
// ptm{j}{...}, citation{j}{...}, interaction{j}}.
func GenMiMI(cfg MiMIConfig) *tree.Node {
	r := rand.New(rand.NewSource(cfg.Seed))
	root := tree.NewTree()
	for i := 0; i < cfg.Entries; i++ {
		entry := tree.NewTree()
		entry.AddChild("name", tree.NewLeaf(geneName(r, i)))
		entry.AddChild("organism", tree.NewLeaf(organisms[r.Intn(len(organisms))]))
		for j, n := 0, r.Intn(cfg.MaxPTMs+1); j < n; j++ {
			ptm := tree.NewTree()
			ptm.AddChild("kind", tree.NewLeaf(ptmKinds[r.Intn(len(ptmKinds))]))
			ptm.AddChild("site", tree.NewLeaf(fmt.Sprintf("S%d", r.Intn(800))))
			entry.AddChild(fmt.Sprintf("ptm{%d}", j), ptm)
		}
		for j, n := 0, r.Intn(cfg.MaxCitations+1); j < n; j++ {
			cit := tree.NewTree()
			cit.AddChild("pmid", tree.NewLeaf(fmt.Sprintf("%d", 10000000+r.Intn(9000000))))
			cit.AddChild("journal", tree.NewLeaf(journals[r.Intn(len(journals))]))
			entry.AddChild(fmt.Sprintf("citation{%d}", j), cit)
		}
		for j, n := 0, r.Intn(cfg.MaxInteracts+1); j < n; j++ {
			entry.AddChild(fmt.Sprintf("interaction{%d}", j),
				tree.NewLeaf(fmt.Sprintf("mol%d", r.Intn(cfg.Entries))))
		}
		root.AddChild(fmt.Sprintf("mol%d", i), entry)
	}
	return root
}

// OrganelleConfig sizes the OrganelleDB-like source.
type OrganelleConfig struct {
	Proteins int
	Seed     int64
}

// DefaultOrganelle is a laptop-scale default.
var DefaultOrganelle = OrganelleConfig{Proteins: 500, Seed: 2}

// GenOrganelleTree builds the OrganelleDB-like source as a tree view:
// protein{i} → {name, localization, organism} — a parent with exactly three
// leaf children, the size-four subtree the experiments copy.
func GenOrganelleTree(cfg OrganelleConfig) *tree.Node {
	r := rand.New(rand.NewSource(cfg.Seed))
	root := tree.NewTree()
	for i := 0; i < cfg.Proteins; i++ {
		p := tree.NewTree()
		p.AddChild("name", tree.NewLeaf(geneName(r, i)))
		p.AddChild("localization", tree.NewLeaf(organelles[r.Intn(len(organelles))]))
		p.AddChild("organism", tree.NewLeaf(organisms[r.Intn(len(organisms))]))
		root.AddChild(fmt.Sprintf("protein{%d}", i), p)
	}
	return root
}

// OrganelleSchema is the relational schema of the OrganelleDB-like source
// table, keyed by protein id.
func OrganelleSchema() relstore.TableSchema {
	return relstore.TableSchema{
		Name: "proteins",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TStr},
			{Name: "name", Type: relstore.TStr},
			{Name: "localization", Type: relstore.TStr},
			{Name: "organism", Type: relstore.TStr},
		},
		Key: []string{"id"},
	}
}

// LoadOrganelleDB populates a relstore database with the OrganelleDB-like
// source relation, mirroring GenOrganelleTree row for row (the wrapped
// four-level view of the relational data equals the tree view, minus the id
// column, which becomes the key label).
func LoadOrganelleDB(db *relstore.DB, cfg OrganelleConfig) error {
	tbl, err := db.CreateTable(OrganelleSchema())
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Proteins; i++ {
		row := relstore.Row{
			fmt.Sprintf("protein{%d}", i),
			geneName(r, i),
			organelles[r.Intn(len(organelles))],
			organisms[r.Intn(len(organisms))],
		}
		if err := tbl.Insert(row); err != nil {
			return err
		}
	}
	return nil
}
