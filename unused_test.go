package hhcw_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the functions, methods, types, variables and
// constants under internal/ that may have no use in non-test code, each with
// the reason it stays. Keys are "package.Name" for package-level names and
// "package.Type.Name" for methods.
var uncalledAllowed = map[string]string{
	"core.WithGPUs":           "task option of the composition API",
	"core.WithIOFraction":     "task option of the composition API",
	"core.WithData":           "task option of the composition API",
	"core.WithParam":          "task option of the composition API",
	"core.Parallel":           "node of the composition API",
	"core.When":               "node of the composition API",
	"compose.Stitch":          "composition API, in the README",
	"compose.Pipeline":        "composition API, in the README",
	"compose.Workflow":        "identity Compiler of the composition API: an already-built DAG composes like any description",
	"core.Sub":                "node of the composition API",
	"dag.Diamond":             "test fixture",
	"dag.Chain":               "test fixture",
	"jaws.Equivalent":         "test oracle for fusion and migration",
	"cwsi.Tarema":             "§3's named strategy; BenchmarkAblation_Strategies measures it",
	"cwsi.Spread":             "the Kubernetes default scheduler's placement, in DESIGN's strategy family",
	"rm.BatchManager.Started": "test oracle for the jobs a batch queue started",
	"service.Substrate.Audit": "test oracle: the statediff audit of a warm reset",
	"service.Run":             "the single-session entry point beside Sweep",
	"cloud.C6aLarge":          "§5.2's named instance type",
	"steady.AllocsPerRun":     "test helper: the allocation ceilings measure at a steady state",
}

// TestExportedInternalFuncsHaveCallers fails on any function or method, and
// any exported type, package-level variable or constant, declared under
// internal/ that no non-test code of the root module, bench/ or
// bench/cmd/e2e uses outside its own declaration, unless uncalledAllowed
// keeps it; and on an allowlist entry that is undeclared or has a use. Uses
// are resolved by go/types, so a method is used only through its own
// receiver type: B.Foo does not pass because A.Foo is called, and a struct
// field key does not use a function of the same name. A method also counts
// as used when its type implements an interface whose method of that name
// is used, or one the standard library calls into (see runtimeInterfaces).
func TestExportedInternalFuncsHaveCallers(t *testing.T) {
	skipUnderRace(t)
	pkgs := goList(t, ".", "./...")
	pkgs = append(pkgs, goList(t, "bench", "./...")...)
	found, declared, err := findUncalled(pkgs, "hhcw/internal/")
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	unused := map[string]bool{}
	for _, f := range found {
		unused[f.key] = true
		if uncalledAllowed[f.key] == "" {
			uncalled = append(uncalled, f.String())
		}
	}
	for key := range uncalledAllowed {
		if !declared[key] {
			t.Errorf("allowlisted %s is not declared under internal/", key)
		} else if !unused[key] {
			t.Errorf("allowlisted %s has a use; drop it from uncalledAllowed", key)
		}
	}
	if len(uncalled) > 0 {
		t.Errorf("functions, methods, types, variables and constants no non-test code uses (delete them, or allowlist one with its reason):\n%s",
			strings.Join(uncalled, "\n"))
	}
}

// TestFindUncalledResolvesByReceiver runs the guard on testdata/uncalled,
// where A.Foo is called and B.Foo is not, and a struct field keyed Chain
// sits beside an uncalled func Chain.
func TestFindUncalledResolvesByReceiver(t *testing.T) {
	skipUnderRace(t)
	found, _, err := findUncalled(goList(t, ".", "./testdata/uncalled"), "hhcw/testdata/")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, f := range found {
		keys = append(keys, f.key)
	}
	if want := []string{"uncalled.B.Foo", "uncalled.Chain"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("findUncalled = %v, want %v", keys, want)
	}
}

// skipUnderRace skips a guard test in a -race build: the guard is a static
// source check the race detector cannot affect, and type-checking the
// repository under -race takes about 11 s.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("static source check the race detector cannot affect; about 11 s under -race")
	}
}

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// goList lists patterns with all their dependencies in dir's module, in
// dependency order, and keeps the hhcw packages.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		if p.ImportPath == "hhcw" || strings.HasPrefix(p.ImportPath, "hhcw/") {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// runtimeInterfaces are the standard-library interfaces whose methods the
// runtime or the standard library call without a use in this repository's
// source, as "package.Name" ("error" for the predeclared one). Only a
// package that imports one's package can hand it a value to call.
var runtimeInterfaces = []string{"error", "fmt.Stringer", "sort.Interface", "container/heap.Interface", "math/rand.Source"}

// uncalledDecl is one declaration no non-test code uses.
type uncalledDecl struct {
	key string // as in uncalledAllowed
	pos token.Position
	obj types.Object
}

func (d uncalledDecl) String() string { return d.pos.String() + ": " + d.key }

// findUncalled type-checks the non-test files of pkgs, which come in
// dependency order (a package listed twice is checked once), and returns
// the declarations of the packages whose import path starts with under that
// none of those files uses, sorted by key, with the key of every
// declaration it considered.
func findUncalled(pkgs []listedPackage, under string) ([]uncalledDecl, map[string]bool, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{} // and the standard packages they import
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		p, err := std.Import(path)
		checked[path] = p
		return p, err
	})}
	used := map[types.Object]bool{}
	var named []*types.TypeName // every package-level type, for the interface rule
	var decls []uncalledDecl
	for _, lp := range pkgs {
		if checked[lp.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		checked[lp.ImportPath] = pkg
		for _, f := range files {
			for _, d := range f.Decls {
				noteUses(d, info, used)
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if isType {
				named = append(named, tn)
			}
			if !strings.HasPrefix(lp.ImportPath, under) {
				continue
			}
			key := pkg.Name() + "." + name
			if _, isFunc := obj.(*types.Func); isFunc || obj.Exported() {
				decls = append(decls, uncalledDecl{key, fset.Position(obj.Pos()), obj})
			}
			if !isType || tn.IsAlias() {
				continue
			}
			for _, m := range methods(tn) {
				decls = append(decls, uncalledDecl{key + "." + m.Name(), fset.Position(m.Pos()), m})
			}
		}
	}

	// A method is used when its type implements an interface whose method
	// of the same name is used: group the used interface methods by their
	// interface, seeded with the runtime's interfaces of the standard
	// packages the checked ones import.
	ifaceNames := map[*types.Interface][]*types.Func{}
	addIface := func(typ types.Type, fn *types.Func) {
		iface := typ.Underlying().(*types.Interface)
		ifaceNames[iface] = append(ifaceNames[iface], fn)
	}
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				addIface(recv.Type(), fn)
			}
		}
	}
	for _, name := range runtimeInterfaces {
		var typ types.Type
		if name == "error" {
			typ = types.Universe.Lookup("error").Type()
		} else {
			i := strings.LastIndex(name, ".")
			pkg := checked[name[:i]]
			if pkg == nil {
				continue
			}
			typ = pkg.Scope().Lookup(name[i+1:]).Type()
		}
		iface := typ.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			addIface(typ, iface.Method(i))
		}
	}
	for _, tn := range named {
		nt, ok := tn.Type().(*types.Named)
		// types.Implements is unspecified for an uninstantiated generic
		// type, so a generic type's methods count only through direct uses.
		if !ok || tn.IsAlias() || nt.TypeParams().Len() > 0 {
			continue
		}
		var v types.Type = types.NewPointer(nt)
		if types.IsInterface(nt) {
			v = nt
		}
		for iface, fns := range ifaceNames {
			if !types.Implements(v, iface) {
				continue
			}
			for _, fn := range fns {
				if m, _, _ := types.LookupFieldOrMethod(v, false, fn.Pkg(), fn.Name()); m != nil {
					used[origin(m)] = true
				}
			}
		}
	}

	var uncalled []uncalledDecl
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if !used[d.obj] {
			uncalled = append(uncalled, d)
		}
	}
	sort.Slice(uncalled, func(i, j int) bool { return uncalled[i].key < uncalled[j].key })
	return uncalled, declared, nil
}

// methods returns the methods tn declares: a concrete type's methods, or an
// interface's own (not embedded) methods.
func methods(tn *types.TypeName) []*types.Func {
	nt, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	var ms []*types.Func
	if iface, ok := nt.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			ms = append(ms, iface.ExplicitMethod(i))
		}
		return ms
	}
	for i := 0; i < nt.NumMethods(); i++ {
		ms = append(ms, nt.Method(i))
	}
	return ms
}

// noteUses marks in used every object d uses outside its own declaration.
// A method's receiver does not count as a use of its type, and a use of a
// generic function, method or field counts for its generic declaration.
func noteUses(d ast.Decl, info *types.Info, used map[types.Object]bool) {
	mark := func(n ast.Node, own map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && !own[origin(obj)] {
					used[origin(obj)] = true
				}
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		own := map[types.Object]bool{info.Defs[d.Name]: true}
		mark(d.Type, own)
		if d.Body != nil {
			mark(d.Body, own)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			own := map[types.Object]bool{}
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[spec.Name]] = true
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					own[info.Defs[id]] = true
				}
			}
			mark(spec, own)
		}
	}
}

// origin maps an instantiated function, method or field to its generic
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
