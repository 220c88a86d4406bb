package cpdb_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServingPathImports: the public package and the two binaries — what a
// deployment runs — reach no simulator, generator or test-support package,
// however indirectly. The walk follows the non-test imports of every
// repro/... package from the three roots.
func TestServingPathImports(t *testing.T) {
	banned := map[string]bool{}
	for _, name := range []string{"netsim", "provnet", "bench", "dataset", "workload", "provtest"} {
		banned["repro/internal/"+name] = true
	}
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	via := map[string]string{"repro": "", "repro/cmd/cpdb": "", "repro/cmd/cpdbd": ""}
	queue := []string{"repro", "repro/cmd/cpdb", "repro/cmd/cpdbd"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.Join(".", strings.TrimPrefix(pkg, "repro"))
		parsed, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parsed {
			for _, file := range p.Files {
				for _, imp := range file.Imports {
					dep, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if _, seen := via[dep]; seen || !strings.HasPrefix(dep, "repro/") {
						continue
					}
					via[dep] = pkg
					queue = append(queue, dep)
					if banned[dep] {
						chain := dep
						for at := pkg; at != ""; at = via[at] {
							chain = at + " → " + chain
						}
						t.Errorf("the serving path imports %s: %s", dep, chain)
					}
				}
			}
		}
	}
}
