package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/evaluation_quick.golden. The file pins every
// table the evaluation prints at Quick() scale, virtual ms included, so
// regenerate it only for a deliberate change of the experiments or the cost
// model, never for a refactor of how they are charged or run.
var updateGolden = flag.Bool("update", false, "rewrite testdata/evaluation_quick.golden")

// TestEvaluationGolden: every experiment of All() at Quick() scale prints
// what it printed when the golden file was written, rendered as cpdbbench
// renders it — the "### id — title" line, then each table.
func TestEvaluationGolden(t *testing.T) {
	rc := quick(t)
	var got strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&got, "### %s — %s\n\n", e.ID, e.Title)
		tabs, err := e.Run(rc)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tb := range tabs {
			fmt.Fprintln(&got, tb)
		}
	}
	const file = "testdata/evaluation_quick.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("evaluation output differs from %s (rerun with -update only for a deliberate change):\n%s", file, got.String())
	}
}
