package cpdb_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// updateSurfaceGolden rewrites testdata/surface_golden.txt. The file is the
// exported surface of internal/ under review: regenerate it when a change
// adds, removes or re-uses an exported name, and read its diff as the change
// to the surface.
var updateSurfaceGolden = flag.Bool("update-surface-golden", false, "rewrite testdata/surface_golden.txt")

// surfacePkg is one directory of the module: its files split into non-test
// and test, and the short name the golden gives it — the last element under
// internal/, the module-relative path elsewhere, "repro" for the root.
type surfacePkg struct {
	name  string
	files []*ast.File
	test  []bool
}

// TestExportedSurface: one sorted line per exported name declared in the
// non-test code of internal/ — package-level names, and the methods of
// exported types as Type.Method — followed by the packages whose non-test
// code references it, or by "test-only" when only tests do and "unused" when
// nothing does. The scan is by name, not by type: a package references
// pkg.Name through a selector on its import of pkg, its own names
// unqualified, and a method Type.Method through any selector .Method in a
// package that is pkg or imports it — or that declares an interface with a
// method Method, named or literal, through which the call may reach any
// type. So a common method name over-counts and a line is a lead for
// review, not a verdict.
func TestExportedSurface(t *testing.T) {
	pkgs := map[string]*surfacePkg{} // by import path
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "out") {
			return filepath.SkipDir
		}
		parsed, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
		if err != nil || len(parsed) == 0 {
			return err
		}
		rel := filepath.ToSlash(dir)
		p := &surfacePkg{name: strings.TrimPrefix(rel, "internal/")}
		importPath := "repro/" + rel
		if rel == "." {
			p.name, importPath = "repro", "repro"
		}
		for _, astPkg := range parsed {
			names := make([]string, 0, len(astPkg.Files))
			for name := range astPkg.Files {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				p.files = append(p.files, astPkg.Files[name])
				p.test = append(p.test, strings.HasSuffix(name, "_test.go"))
			}
		}
		pkgs[importPath] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The declared surface: exported names of internal/'s non-test files,
	// and the exported methods of each package by method name.
	type key struct{ pkg, name string }
	declared := map[key]bool{}
	methods := map[string]map[string][]string{} // import path → method → types
	for importPath, p := range pkgs {
		if !strings.HasPrefix(importPath, "repro/internal/") {
			continue
		}
		for i, file := range p.files {
			if p.test[i] {
				continue
			}
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if !decl.Name.IsExported() {
						continue
					}
					if decl.Recv == nil {
						declared[key{importPath, decl.Name.Name}] = true
						continue
					}
					recv := receiverType(decl.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					declared[key{importPath, recv + "." + decl.Name.Name}] = true
					if methods[importPath] == nil {
						methods[importPath] = map[string][]string{}
					}
					methods[importPath][decl.Name.Name] = append(methods[importPath][decl.Name.Name], recv)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() {
								declared[key{importPath, spec.Name.Name}] = true
							}
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								if name.IsExported() {
									declared[key{importPath, name.Name}] = true
								}
							}
						}
					}
				}
			}
		}
	}

	// The method names each package declares in an interface: [0] in its
	// non-test files, [1] in all of them.
	ifaceMethods := map[string]*[2]map[string]bool{}
	for importPath, p := range pkgs {
		in := &[2]map[string]bool{{}, {}}
		for i, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							in[1][name.Name] = true
							if !p.test[i] {
								in[0][name.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		ifaceMethods[importPath] = in
	}

	// The references: for each declared name, the packages whose non-test
	// code names it, and whether any test does.
	refs := map[key]map[string]bool{}
	testRef := map[key]bool{}
	mark := func(k key, by string, test bool) {
		if !declared[k] {
			return
		}
		if test {
			testRef[k] = true
			return
		}
		if refs[k] == nil {
			refs[k] = map[string]bool{}
		}
		refs[k][by] = true
	}
	for importPath, p := range pkgs {
		for i, file := range p.files {
			imports := map[string]string{} // local name → import path
			reaches := map[string]bool{importPath: true}
			for _, imp := range file.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := pkgs[dep]; !ok {
					continue
				}
				reaches[dep] = true
				local := dep[strings.LastIndex(dep, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = dep
			}
			// Identifiers that declare rather than use a name.
			declaring := map[*ast.Ident]bool{}
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					declaring[decl.Name] = true
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declaring[spec.Name] = true
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								declaring[name] = true
							}
						}
					}
				}
			}
			ifaces := ifaceMethods[importPath][0]
			if p.test[i] {
				ifaces = ifaceMethods[importPath][1]
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dep, ok := imports[x.Name]; ok {
							mark(key{dep, n.Sel.Name}, p.name, p.test[i])
							return false
						}
					}
					for dep, ms := range methods {
						if reaches[dep] || ifaces[n.Sel.Name] {
							for _, recv := range ms[n.Sel.Name] {
								mark(key{dep, recv + "." + n.Sel.Name}, p.name, p.test[i])
							}
						}
					}
					ast.Inspect(n.X, visit) // n.Sel names a field or method, not a package-level name
					return false
				case *ast.Field:
					for _, name := range n.Names {
						declaring[name] = true
					}
				case *ast.Ident:
					if !declaring[n] {
						mark(key{importPath, n.Name}, p.name, p.test[i])
					}
				}
				return true
			}
			ast.Inspect(file, visit)
		}
	}

	lines := make([]string, 0, len(declared))
	for k := range declared {
		line := pkgs[k.pkg].name + "." + k.name
		switch by := refs[k]; {
		case len(by) > 0:
			names := make([]string, 0, len(by))
			for name := range by {
				names = append(names, name)
			}
			slices.Sort(names)
			line += ": " + strings.Join(names, " ")
		case testRef[k]:
			line += ": test-only"
		default:
			line += ": unused"
		}
		lines = append(lines, line)
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "surface_golden.txt")
	if *updateSurfaceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestExportedSurface -update-surface-golden .)", err)
	}
	if got != string(want) {
		gotLines, wantLines := lineSet(got), lineSet(string(want))
		for _, l := range lines {
			if !wantLines[l] {
				t.Errorf("+ %s", l)
			}
		}
		for l := range wantLines {
			if !gotLines[l] {
				t.Errorf("- %s", l)
			}
		}
		t.Errorf("the exported surface differs from %s; review the lines above and regenerate with -update-surface-golden", golden)
	}
}

// receiverType is the name of a method's receiver type, without its pointer
// and type parameters.
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func lineSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		set[l] = true
	}
	return set
}
