package cpdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
	for _, name := range []string{"netsim", "bench", "dataset", "workload", "provtest"} {
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

// TestPullIteratorsStayInMergeScans: a pull iterator is a coroutine per
// stream and a stack switch per record, worth paying only where k unbounded
// streams meet. So, over every non-test file of the root package and
// internal/, iter.Pull and iter.Pull2 are referenced by provstore.MergeScans
// alone, and MergeScans is called only by the two scatters over shards —
// ShardedBackend.Scan and the planner's matched. A store or a decorator that
// wants one has a bounded answer to gather or a slice to loop over instead.
func TestPullIteratorsStayInMergeScans(t *testing.T) {
	mayCallMerge := map[string]bool{
		"internal/provstore.(*ShardedBackend).Scan": true,
		"internal/provplan.(*Plan).matched":         true,
	}
	check := func(dir string) {
		notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		parsed, err := parser.ParseDir(token.NewFileSet(), dir, notTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parsed {
			for _, file := range p.Files {
				for _, decl := range file.Decls {
					where := filepath.ToSlash(dir) + "."
					switch fn, ok := decl.(*ast.FuncDecl); {
					case !ok:
						where += "(package level)"
					case fn.Recv != nil:
						where += "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
					default:
						where += fn.Name.Name
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "iter" && strings.HasPrefix(n.Sel.Name, "Pull") && where != "internal/provstore.MergeScans" {
								t.Errorf("%s references iter.%s: pull iterators belong to provstore.MergeScans alone", where, n.Sel.Name)
							}
						case *ast.CallExpr:
							name := ""
							switch fun := n.Fun.(type) {
							case *ast.Ident:
								name = fun.Name
							case *ast.SelectorExpr:
								name = fun.Sel.Name
							}
							if name == "MergeScans" && !mayCallMerge[where] {
								t.Errorf("%s calls MergeScans: the k-way merge is for the scatters over shards (%v)", where, mayCallMerge)
							}
						}
						return true
					})
				}
			}
		}
	}
	check(".")
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() != "testdata" {
			check(dir)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
