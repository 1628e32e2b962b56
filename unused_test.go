package hhcw_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed names the exported functions, methods, types, variables
// and constants under internal/ that may have no use in non-test code, each
// with the reason it stays. Keys are "package.Name" for functions, types,
// variables and constants and "package.Type.Name" for methods.
var uncalledAllowed = map[string]string{
	"core.WithCores":              "task option of the composition API",
	"core.WithGPUs":               "task option of the composition API",
	"core.WithMemory":             "task option of the composition API",
	"core.WithDuration":           "task option of the composition API",
	"core.WithIOFraction":         "task option of the composition API",
	"core.WithData":               "task option of the composition API",
	"core.WithParam":              "task option of the composition API",
	"core.Parallel":               "node of the composition API",
	"core.When":                   "node of the composition API",
	"compose.Stitch":              "composition API, in the README",
	"compose.Pipeline":            "composition API, in the README",
	"core.Sub":                    "node of the composition API",
	"dag.Diamond":                 "test fixture",
	"jaws.Equivalent":             "test oracle for fusion and migration",
	"cluster.Cluster.FoldMetrics": "documented no-op that bench/ calls",
	"rm.TaskManager.SetLean":      "documented no-op that bench/ calls",
	"core.StreamingEnv":           "reference environment of the eager ≡ streaming battery",
	"cwsi.Tarema":                 "§3's named strategy; BenchmarkAblation_Strategies measures it",
	"cwsi.Spread":                 "the Kubernetes default scheduler's placement, in DESIGN's strategy family",
	"rm.BatchManager.Started":     "test oracle for the jobs a batch queue started",
	"service.Run":                 "the single-session entry point beside Sweep",
	"cloud.C6aLarge":              "§5.2's named instance type",
}

// TestExportedInternalFuncsHaveCallers fails on any exported function,
// method, type, package-level variable or constant declared under internal/
// that no non-test file under internal/, cmd/, examples/ or bench/ uses
// outside its own declaration. A function, type, variable or constant is
// used only as pkg.Name from another package or as a bare Name inside its
// own package, so another package's declaration of the same name does not
// hide it. A method's receiver does not count as a use of its type. Methods
// match by identifier: a method counts as called when any type's method or
// interface method of the same name is used anywhere.
func TestExportedInternalFuncsHaveCallers(t *testing.T) {
	type decl struct {
		key    string // "package.Name" or "package.Type.Name", as uncalledAllowed
		dirKey string // "dir.Name" for package-level names, "" for methods
		pos    token.Position
	}
	var decls []decl
	// byName counts every identifier; methods match through it. The
	// standard library calls these through sort.Interface, heap.Interface,
	// error and fmt.Stringer.
	byName := map[string]int{"Len": 1, "Less": 1, "Swap": 1, "Push": 1, "Pop": 1, "Error": 1, "String": 1}
	// qualified counts "dir.Name" uses of package-level names: pkg.Name
	// resolved through the file's imports, and bare names in their own
	// package's directory.
	qualified := map[string]int{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			// imports maps each name this file refers to one of the
			// module's packages by to that package's directory.
			imports := map[string]string{}
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				rel, ok := strings.CutPrefix(ip, "hhcw/")
				if !ok {
					continue
				}
				name := rel[strings.LastIndex(rel, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = rel
			}
			internal := root == "internal"
			for _, d := range f.Decls {
				// A declared name used inside its own declaration, and a
				// method's receiver type, do not count as uses.
				var own []string
				var recv *ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					own = append(own, d.Name.Name)
					key, dirKey := f.Name.Name+"."+d.Name.Name, dir+"."+d.Name.Name
					if d.Recv != nil {
						recv = recvIdent(d.Recv.List[0].Type)
						key, dirKey = f.Name.Name+"."+recv.Name+"."+d.Name.Name, ""
					}
					if internal && d.Name.IsExported() {
						decls = append(decls, decl{key, dirKey, fset.Position(d.Pos())})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						for _, id := range names {
							own = append(own, id.Name)
							if internal && id.IsExported() {
								decls = append(decls, decl{f.Name.Name + "." + id.Name, dir + "." + id.Name, fset.Position(id.Pos())})
							}
						}
					}
				}
				var visit func(n ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if !slices.Contains(own, n.Sel.Name) {
							byName[n.Sel.Name]++
						}
						// Another package's name is never the declaration's own.
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							qualified[imports[x.Name]+"."+n.Sel.Name]++
							return false
						}
						ast.Inspect(n.X, visit)
						return false
					case *ast.Ident:
						if n != recv && !slices.Contains(own, n.Name) {
							byName[n.Name]++
							qualified[dir+"."+n.Name]++
						}
					}
					return true
				}
				ast.Inspect(d, visit)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
	}
	for key := range uncalledAllowed {
		if !declared[key] {
			t.Errorf("allowlisted %s is not declared under internal/", key)
		}
	}
	var uncalled []string
	for _, d := range decls {
		used := qualified[d.dirKey] > 0
		if d.dirKey == "" {
			used = byName[d.key[strings.LastIndex(d.key, ".")+1:]] > 0
		}
		if !used && uncalledAllowed[d.key] == "" {
			uncalled = append(uncalled, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("exported functions, types, variables and constants no non-test code uses (delete them, or allowlist one with its reason):\n%s",
			strings.Join(uncalled, "\n"))
	}
}

// recvIdent returns the identifier naming a method receiver's type, without
// pointer or type parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return ast.NewIdent("?")
		}
	}
}
