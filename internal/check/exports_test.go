package check

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported symbols the guard accepts with no
// non-test caller, each with the reason it stays. Keys are the symbol's
// package path below the module ("tagger" for the root facade), then the
// receiver type for a method, then the name.
var exportAllowlist = map[string]string{
	// Read by other packages' tests.
	"check.GenCase":                 "elp's tests enumerate over the fuzzer's fabrics (genCaseFabrics)",
	"check.Topos":                   "elp's tests enumerate over the fuzzer's fabrics (genCaseFabrics)",
	"topology.Graph.Validate":       "deploy's tests check an imported graph's structural invariants",
	"routing.Path.Bounces":          "elp, core and sim tests count a path's bounces, §4.2's k-bounce measure",
	"elp.HostLevel":                 "core's TestClosRulesCoverHostLevelELP builds its host-level ELP with it",
	"dataplane.Fabric.TotalEntries": "root TestFullDeploymentChain and BenchmarkDataplaneCompileJellyfish200 check the image is non-empty",
	"sim.EngineStats.Events":        "root figure benchmarks report events/op from it",

	// Called by an open ROADMAP item.
	"topology.AddShortcut": "item 16(d) builds its full mesh with it; core's shortcut test covers it meanwhile",

	// Facade API that README or a godoc example documents.
	"tagger.ChaosSoak":            "README's chaos soak section shows it",
	"tagger.PostmortemStore.Sink": "README's /debug/postmortem feed: Sink fills a PostmortemStore from a FlightRecConfig",
	"tagger.Ruleset":              "the type of System.Rules; ExampleRuleset_Replay documents it",
}

// TestExportsHaveCallers fails on any exported symbol of the root package
// or internal/ that no non-test file of the module (cmd/ and examples/
// included) or of the bench/ module references, unless the symbol is a
// method that satisfies an interface declared in the module or the
// standard library, or is on exportAllowlist. Code that only tests call
// belongs in a _test.go file or nowhere.
func TestExportsHaveCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found from internal/check: %v", err)
	}
	s := newExportScan(t, root)
	cands := s.candidates()
	var missing, stale []string
	for key, obj := range cands {
		if _, ok := exportAllowlist[key]; ok || s.used[obj] || s.satisfiesInterface(obj) {
			continue
		}
		missing = append(missing, key+" ("+s.fset.Position(obj.Pos()).String()+")")
	}
	for key := range exportAllowlist {
		if obj, ok := cands[key]; !ok || s.used[obj] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("exported with no non-test caller: %s", m)
	}
	for _, key := range stale {
		t.Errorf("exportAllowlist entry %s is stale: the symbol is gone or has a non-test caller", key)
	}
}

// exportScan is the module type-checked from its non-test files alone, so
// every recorded use is a non-test use.
type exportScan struct {
	fset     *token.FileSet
	module   string
	dirs     map[string]string // import path → directory
	pkgs     map[string]*types.Package
	std      types.Importer
	info     *types.Info
	used     map[types.Object]bool
	ownDecls map[types.Object][2]token.Pos // a func's own body: self-uses do not count
	ifaces   []*types.Interface
	t        *testing.T
}

func newExportScan(t *testing.T, root string) *exportScan {
	s := &exportScan{
		fset:     token.NewFileSet(),
		module:   "repro",
		dirs:     map[string]string{},
		pkgs:     map[string]*types.Package{},
		used:     map[types.Object]bool{},
		ownDecls: map[types.Object][2]token.Pos{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		t: t,
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	s.findDirs(root, s.module)
	s.findDirs(filepath.Join(root, "bench"), s.module+"/bench")
	paths := make([]string, 0, len(s.dirs))
	for p := range s.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	for id, obj := range s.info.Uses {
		obj = origin(obj)
		if span, ok := s.ownDecls[obj]; ok && id.Pos() >= span[0] && id.Pos() < span[1] {
			continue
		}
		s.used[obj] = true
	}
	return s
}

// findDirs maps every directory under dir holding non-test Go files to
// its import path. testdata and a nested module (bench/) are skipped.
func (s *exportScan) findDirs(dir, path string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			sub := filepath.Join(dir, name)
			if _, err := os.Stat(filepath.Join(sub, "go.mod")); err == nil {
				continue
			}
			s.findDirs(sub, path+"/"+name)
			continue
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			s.dirs[path] = dir
		}
	}
}

// Import type-checks a module package from its non-test files, and hands
// every other path to the standard library's source importer.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := s.info.Defs[fd.Name]; obj != nil {
					s.ownDecls[obj] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}
	return pkg, nil
}

// candidates returns the exported package-level objects and the exported
// methods of named types in the root package and internal/, keyed as
// exportAllowlist keys them.
func (s *exportScan) candidates() map[string]types.Object {
	out := map[string]types.Object{}
	for path, pkg := range s.pkgs {
		var short string
		switch {
		case path == s.module:
			short = "tagger"
		case strings.HasPrefix(path, s.module+"/internal/"):
			short = strings.TrimPrefix(path, s.module+"/internal/")
		default:
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[short+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					out[short+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether obj is a method whose receiver type
// implements an interface, declared in any package the scan loaded, that
// has a method of that name.
func (s *exportScan) satisfiesInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	if s.ifaces == nil {
		s.ifaces = s.interfaces()
	}
	for _, iface := range s.ifaces {
		if sel, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); sel == nil {
			continue
		}
		if types.Implements(recv, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// interfaces returns every non-empty named interface of every package the
// scan loaded (the module's and, transitively, the standard library's),
// plus error.
func (s *exportScan) interfaces() []*types.Interface {
	out := []*types.Interface{errorIface}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range s.pkgs {
		walk(pkg)
	}
	return out
}

// origin maps an instantiated generic function or method to its
// declaration, the object candidates() holds.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
