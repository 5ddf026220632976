package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names each exported function or method of internal/ that
// no program file reaches and that stays anyway, keyed as unreached prints
// it (the package path under internal/, the receiver's type name, the
// name), with the reason it stays.
var reachAllowlist = map[string]string{
	"core.Execute":                      "runs a DAG with no server behind it: the executor's tests and those of remote, store, tier and kaggle compute a workload's artifacts with it",
	"data.Column.Validate":              "the oracle of tier.FuzzValidateColumn: the tier's decoder enforces these rules itself",
	"data.NewDictColumn":                "builds a dictionary-encoded column code by code, which the data, codec and tier tests feed in and no program builds by hand",
	"eg/egtest.Check":                   "the Experiment Graph's invariant oracle, shared by the tests of core, eg, persist and remote",
	"obs.ArtifactLedger.SetClock":       "the ledger's clock seam: its rent tests advance a scripted clock",
	"obs.Histogram.Count":               "a histogram's sample count, which the lock-wait tests of core and store assert",
	"parallel.ReadCounts":               "the pool's helper counts, which the width tests read to see a kernel still runs wide",
	"parallel.SetWorkers":               "the pool width seam: the determinism and width tests run one input at several widths",
	"store.Manager.Demote":              "moves one entry to the disk tier, which the placement tests use to set up a tier state",
	"workloads/synth.NewUniverse":       "the random-DAG universe of the property tests of core, eg, materialize, persist and remote",
	"workloads/synth.Universe.Workload": "draws one DAG of a synth.NewUniverse universe",
	"workloads/synth.Wide":              "the wide-DAG generator of the executor, calibration, ledger and wire tests",
}

// TestEveryInternalFunctionIsReached fails on each exported function or
// method of internal/ that no program file of the module (every non-test
// package, bench/, cmd/*, examples/* and the root package included) uses,
// unless reachAllowlist names it; and on each allowlist entry that names
// nothing declared or something a program now reaches.
func TestEveryInternalFunctionIsReached(t *testing.T) {
	findings, err := unreached(".", reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestReachCheckFindsWhatIsPlanted runs the check on the module in
// testdata/reach: its one unreached function and its stale allowlist entry
// are found, and its methods reached only through an interface, through a
// generic type's instantiation or by the errors package are not.
func TestReachCheckFindsWhatIsPlanted(t *testing.T) {
	allow := map[string]string{
		"lib.Seam": "kept for a test",
		"lib.Gone": "names a function that no longer exists",
		"lib.Used": "names a function that a program now reaches",
	}
	got, err := unreached("testdata/reach", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist: lib.Gone names no exported function of internal/",
		"allowlist: lib.Used is reached by a program file",
		"internal/lib/lib.go:9: lib.Unreached is reached by no program file",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unreached type-checks every non-test package of the module rooted at root
// and returns, sorted, one finding per exported function or method declared
// under internal/ that no program file uses (outside its own body), unless
// it is exempt or allow names it, and one per allow entry that names
// nothing declared or something used or exempt.
//
// A method is exempt when its type implements an interface that declares it
// (a named interface of the module or of a standard package the module
// imports, or error), since a call through the interface reaches it, and
// when it is Unwrap, Is or As, which errors calls through anonymous
// interfaces.
func unreached(root string, allow map[string]string) ([]string, error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(modBytes), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}

	dirs := map[string]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	l := &reachLoader{
		fset:    fset,
		dirs:    dirs,
		std:     importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom),
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}

	// Every declared exported function and method of internal/, with the
	// span of its declaration: a use inside its own body reaches nothing.
	type target struct {
		key      string
		decl     *ast.FuncDecl
		recvType *types.Named
	}
	targets := map[*types.Func]target{}
	byKey := map[string]*types.Func{}
	prefix := module + "/internal/"
	for _, p := range paths {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		for _, file := range l.files[p] {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := l.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := strings.TrimPrefix(p, prefix) + "."
				var named *types.Named
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					named, _ = rt.(*types.Named)
					if named == nil {
						continue
					}
					key += named.Obj().Name() + "."
				}
				key += fn.Name()
				targets[fn] = target{key: key, decl: fd, recvType: named}
				byKey[key] = fn
			}
		}
	}

	used := map[*types.Func]bool{}
	use := func(pos token.Pos, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if tg, ok := targets[fn]; ok && pos >= tg.decl.Pos() && pos < tg.decl.End() {
			return
		}
		used[fn] = true
	}
	for id, obj := range l.info.Uses {
		use(id.Pos(), obj)
	}
	for sel, s := range l.info.Selections {
		use(sel.Sel.Pos(), s.Obj())
	}

	ifaces := l.interfaces()
	exempt := func(fn *types.Func, named *types.Named) bool {
		if named == nil {
			return false
		}
		switch fn.Name() {
		case "Unwrap", "Is", "As":
			return true
		}
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range ifaces {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == fn.Name() {
					return true
				}
			}
		}
		return false
	}

	var findings []string
	for fn, tg := range targets {
		if used[fn] || exempt(fn, tg.recvType) {
			continue
		}
		if _, ok := allow[tg.key]; ok {
			continue
		}
		pos := fset.Position(tg.decl.Name.Pos())
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		findings = append(findings, fmt.Sprintf("%s:%d: %s is reached by no program file", filepath.ToSlash(file), pos.Line, tg.key))
	}
	for key := range allow {
		fn, ok := byKey[key]
		switch {
		case !ok:
			findings = append(findings, fmt.Sprintf("allowlist: %s names no exported function of internal/", key))
		case used[fn] || exempt(fn, targets[fn].recvType):
			findings = append(findings, fmt.Sprintf("allowlist: %s is reached by a program file", key))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// reachLoader type-checks the module's packages from their non-test files,
// each once, importing the standard library from its export data (the gc
// importer asks the go command where that is; type-checking it from source
// takes five times as long under -race). One info gathers
// the definitions, uses and selections of every package it checks.
type reachLoader struct {
	fset    *token.FileSet
	dirs    map[string]string // import path → directory, for the module's packages
	std     types.ImporterFrom
	checked map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.load(path)
	}
	return l.std.ImportFrom(path, "", 0)
}

// load type-checks the module package at path, which may hold no Go file
// (nil, nil).
func (l *reachLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(l.dirs[path], 0)
	if _, none := err.(*build.NoGoError); none && len(bp.GoFiles) == 0 {
		l.checked[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.checked[path] = pkg
	l.files[path] = files
	return pkg, nil
}

// interfaces returns error and every named method-set interface declared at
// package level in the module's packages and in the packages they import.
func (l *reachLoader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, pkg := range l.checked {
		if pkg == nil {
			continue
		}
		for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
			if seen[p] {
				continue
			}
			seen[p] = true
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok || named.TypeParams().Len() > 0 {
					continue
				}
				if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
					out = append(out, iface)
				}
			}
		}
	}
	return out
}
