package serena

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the module's import path, from go.mod.
const modulePath = "serena"

// facadeMethodLimit caps the *PEMS method set, unexported methods included.
// A setting or accessor that belongs to one layer of the PEMS is called on
// that layer (Executor(), Registry(), Registry().Tracer()), not forwarded
// here.
const facadeMethodLimit = 57

// testOnlyExports lists the exported functions and methods under internal/
// that may have no caller outside tests, each with the reason it stays. A
// key is the package path below internal/, the receiver's type name for a
// method, and the name, joined by dots. An entry whose identifier is gone
// or has gained a production caller fails the test, so the list only
// shrinks.
var testOnlyExports = map[string]string{
	"device.Camera.Shots":            "query, cq, pems and ssql tests count takePhoto's side effects",
	"device.GetItemsProto":           "the RSS wrapper prototype of §5.2, registered by the pems feed tests",
	"device.Messenger.ErrorFor":      "fault hook: cq tests make a delivery fail",
	"device.Messenger.SetLatency":    "fault hook: pems tests slow a delivery down",
	"device.Sensor.Invocations":      "cq, query and rewrite tests count physical getTemperature calls",
	"paperenv.Cameras":               "the paper's scenario data, shared by the algebra, query, rewrite and optimizer tests",
	"paperenv.Contacts":              "the paper's scenario data, shared by the algebra, query, rewrite and optimizer tests",
	"paperenv.MustRegistry":          "the paper's scenario data, shared by the algebra, query, rewrite and optimizer tests",
	"paperenv.Sensors":               "the paper's scenario data, shared by the algebra, query, rewrite and optimizer tests",
	"paperenv.Surveillance":          "the paper's scenario data, shared by the algebra, query, rewrite and optimizer tests",
	"paperenv.TemperaturesSchema":    "the paper's temperatures stream, shared by the algebra, cq and stream tests",
	"pems.PEMS.AddDiscoveryRelation": "the discovery relations of §5, which have no DDL form yet",
	"query.CheckEquivalence":         "the Definition 9 oracle the query, rewrite and optimizer tests compare plans against",
	"service.Faulty.Calls":           "fault injection for the cq and service tests",
	"service.NewFaulty":              "fault injection for the cq and pems tests",
	"service.Registry.ProviderNodes": "discovery and pems tests observe which nodes provide a reference",
	"service.Registry.Unregister":    "cq and pems tests withdraw a service mid-run",
}

// unnamedInterfaces are the interfaces the standard library asserts
// without naming them in a package scope: errors.Is, errors.As and
// errors.Unwrap look for these methods on an error.
var unnamedInterfaces = []string{
	"interface{ error; Unwrap() error }",
	"interface{ error; Unwrap() []error }",
	"interface{ error; Is(error) bool }",
	"interface{ error; As(any) bool }",
}

// TestEveryExportHasProductionCaller type-checks every non-test package of
// the module and fails on an exported function or method under internal/
// that no non-test file uses. Go forbids importing internal/ from outside
// the module, so such an identifier is reachable from tests alone: API kept
// alive for its own tests. The identifier's own package counts as a caller,
// and so do cmd/, examples/ and benchmark/; a use inside the function's own
// body does not. A method that implements a method of an interface declared
// by the module or by a package it imports is reachable by dynamic dispatch
// (a String method through fmt) and is not flagged. The test also caps the
// *PEMS method set at facadeMethodLimit.
func TestEveryExportHasProductionCaller(t *testing.T) {
	m := loadModule(t)

	used := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			markUses(f, p.info, used)
		}
	}
	ifaces := m.interfacesByMethod()

	exported := map[string]bool{} // key → has a production caller
	var unused []string
	for _, path := range m.order {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, fn := range exportedFuncs(m.pkgs[path].types) {
			key := exportKey(fn)
			called := used[fn] || implementsInterfaceMethod(fn, ifaces)
			exported[key] = called
			if _, listed := testOnlyExports[key]; !called && !listed {
				unused = append(unused, fmt.Sprintf("%s (%s)", key, m.fset.Position(fn.Pos())))
			}
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported function(s) under internal/ have no caller outside tests:\n\t%s\n"+
			"call the production path from the test, move the helper to an export_test.go, or delete it",
			len(unused), strings.Join(unused, "\n\t"))
	}

	keys := make([]string, 0, len(testOnlyExports))
	for key := range testOnlyExports {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		called, ok := exported[key]
		switch {
		case !ok:
			t.Errorf("testOnlyExports lists %s, which no longer exists: delete the entry", key)
		case called:
			t.Errorf("testOnlyExports lists %s, which has a production caller: delete the entry", key)
		case testOnlyExports[key] == "":
			t.Errorf("testOnlyExports lists %s without a reason", key)
		}
	}

	facade, ok := m.pkgs[modulePath+"/internal/pems"].types.Scope().Lookup("PEMS").Type().(*types.Named)
	if !ok {
		t.Fatal("pems.PEMS is not a named type")
	}
	if n := facade.NumMethods(); n > facadeMethodLimit {
		names := make([]string, n)
		for i := range names {
			names[i] = facade.Method(i).Name()
		}
		sort.Strings(names)
		t.Errorf("*PEMS has %d methods, limit %d: %s", n, facadeMethodLimit, strings.Join(names, ", "))
	}
}

// markUses records in used every function or method that f refers to,
// except a reference inside the referenced function's own declaration.
func markUses(f *ast.File, info *types.Info, used map[*types.Func]bool) {
	for _, decl := range f.Decls {
		var self types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if fn, ok := info.Uses[id].(*types.Func); ok && fn != self {
				used[fn.Origin()] = true
			}
			return true
		})
	}
}

// exportedFuncs returns pkg's exported package-level functions and the
// exported methods declared on its named types.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var fns []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				fns = append(fns, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if method := named.Method(i); method.Exported() {
					fns = append(fns, method)
				}
			}
		}
	}
	return fns
}

// exportKey names fn as testOnlyExports does: "device.Messenger.ErrorFor".
func exportKey(fn *types.Func) string {
	key := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		key += "." + receiverNamed(recv.Type()).Obj().Name()
	}
	return key + "." + fn.Name()
}

// receiverNamed returns the named type of a method receiver T or *T.
func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsInterfaceMethod reports whether fn is a method whose receiver
// type implements an interface, from ifaces, that has a method of fn's name.
func implementsInterfaceMethod(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr := types.NewPointer(receiverNamed(recv.Type()))
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes, by method name, every interface type that the
// module's packages and the packages they import, transitively, declare at
// package level or spell out in their code, plus error and
// unnamedInterfaces.
func (m *module) interfacesByMethod() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, src := range unnamedInterfaces {
		tv, err := types.Eval(m.fset, nil, token.NoPos, src)
		if err != nil {
			panic(err) // a constant above is malformed
		}
		add(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, path := range m.order {
		p := m.pkgs[path]
		visit(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				if _, ok := tv.Type.(*types.Interface); ok {
					add(tv.Type)
				}
			}
		}
	}
	return byName
}

// modulePkg is one type-checked package of the module, test files left out.
type modulePkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// module holds every non-test package of the module, type-checked with one
// shared importer so that an object has one identity across packages.
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*modulePkg // by import path
	order []string              // import paths, sorted
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule parses and type-checks every package under the module root,
// which is the test's working directory. It skips dot directories (build
// outputs), testdata and benchmark/out. Standard-library packages are
// imported from the export data that one `go list` run locates.
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modulePkg{}}
	dirs := map[string]*build.Package{}
	std := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("benchmark", "out")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		importPath := modulePath
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		dirs[importPath] = bp
		m.order = append(m.order, importPath)
		for _, imp := range bp.Imports {
			if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") {
				std[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m.order)
	if _, ok := dirs[modulePath+"/internal/pems"]; !ok {
		t.Fatal("package internal/pems not found: the test must run from the module root")
	}

	exports := stdExportFiles(t, std)
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		bp, ok := dirs[path]
		if !ok {
			return gc.Import(path)
		}
		if p := m.pkgs[path]; p != nil {
			return p.types, nil
		}
		p := &modulePkg{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
		m.pkgs[path] = p
		return pkg, nil
	}
	for _, path := range m.order {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return m
}

// stdExportFiles maps each package in std, and each of its dependencies, to
// its export data file, building what the build cache lacks.
func stdExportFiles(t *testing.T, std map[string]bool) map[string]string {
	t.Helper()
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	sort.Strings(args[5:])
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			files[path] = file
		}
	}
	return files
}
