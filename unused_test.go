package hhcw_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the exported functions and methods under internal/
// that may have no caller in non-test code, each with the reason it stays.
// Keys are "package.Name" for functions and "package.Type.Name" for methods.
var uncalledAllowed = map[string]string{
	"core.WithCores":                 "task option of the composition API",
	"core.WithGPUs":                  "task option of the composition API",
	"core.WithMemory":                "task option of the composition API",
	"core.WithDuration":              "task option of the composition API",
	"core.WithIOFraction":            "task option of the composition API",
	"core.WithData":                  "task option of the composition API",
	"core.WithParam":                 "task option of the composition API",
	"core.Parallel":                  "node of the composition API",
	"core.When":                      "node of the composition API",
	"compose.Stitch":                 "composition API, in the README",
	"dag.Diamond":                    "test fixture",
	"jaws.Equivalent":                "test oracle for fusion and migration",
	"provenance.Store.StatsByTenant": "test oracle for the service's per-tenant accounting",
	"cluster.Cluster.FoldMetrics":    "documented no-op that bench/ calls",
	"rm.TaskManager.SetLean":         "documented no-op that bench/ calls",
	"entk.AppManager.RunPerJob":      "§4 per-workflow batch jobs (README, EXPERIMENTS); not yet wired into cmd/",
	"exaam.Stage1Pipeline":           "§4 ExaAM stage 1 pipeline; not yet wired into cmd/",
	"atlas.RunCloudSpot":             "§5 spot fleet (README); not yet wired into cmd/",
	"jaws.Service.SubmitAuto":        "§6 automatic site routing (README); not yet wired into cmd/",
	"llmwf.RegisterRNASeq":           "§2 RNA-seq function registry; not yet wired into cmd/",
	"cwsi.CWS.ProfileNodes":          "§3.4 node profiling (README); not yet wired into cmd/",
	"cwsi.CWS.SetDataBandwidth":      "§3.1 data-locality model (README); not yet wired into cmd/",
	"rm.TimeoutError.Unwrap":         "errors.Is calls it to find fault.ErrTimeout",
}

// TestExportedInternalFuncsHaveCallers fails on any exported function or
// method declared under internal/ whose name no non-test file under
// internal/, cmd/, examples/ or bench/ mentions outside its own declaration.
// Matching is by identifier, so a method counts as called when any type's
// method or interface method of the same name is used anywhere.
func TestExportedInternalFuncsHaveCallers(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	// The standard library calls these through sort.Interface,
	// heap.Interface, error and fmt.Stringer.
	uses := map[string]int{"Len": 1, "Less": 1, "Swap": 1, "Push": 1, "Pop": 1, "Error": 1, "String": 1}
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
			internal := root == "internal"
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if internal && ok && fd.Name.IsExported() {
					key := f.Name.Name + "." + fd.Name.Name
					if fd.Recv != nil {
						key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					decls = append(decls, decl{key, fset.Position(fd.Pos())})
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, isIdent := n.(*ast.Ident)
					if isIdent && !(ok && id.Name == fd.Name.Name) {
						uses[id.Name]++
					}
					return true
				})
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
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] == 0 && uncalledAllowed[d.key] == "" {
			uncalled = append(uncalled, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("exported functions no non-test code calls (delete them, or allowlist one with its reason):\n%s",
			strings.Join(uncalled, "\n"))
	}
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
