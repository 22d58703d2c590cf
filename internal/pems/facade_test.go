package pems_test

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

// facadeMethodLimit caps the *PEMS method set, unexported methods included.
// A setting or accessor that belongs to one layer of the PEMS is called on
// that layer (Executor(), Registry(), trace.Default), not forwarded here.
const facadeMethodLimit = 60

// facadeTestOnly lists the exported *PEMS methods allowed to have no caller
// outside tests, each with the reason it stays.
var facadeTestOnly = map[string]string{
	"AddDiscoveryRelation": "discovery relations become DDL next (ROADMAP.md, item 2(b))",
}

// TestFacadeHasNoTestOnlyMethods guards the PEMS facade: every exported
// *PEMS method has a caller in the module's non-test code (a command, an
// example, the benchmark, or the package itself), and the method set stays
// within facadeMethodLimit. References are matched by selector name over
// the parsed sources, without type checking, so a same-named method on
// another type also counts as a caller.
func TestFacadeHasNoTestOnlyMethods(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var methods []string
	called := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inPEMS := filepath.Dir(path) == filepath.Join(root, "internal", "pems")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inPEMS && isPEMSReceiver(n.Recv) {
					methods = append(methods, n.Name.Name)
				}
			case *ast.SelectorExpr:
				called[n.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) == 0 {
		t.Fatal("found no *PEMS methods: the module root or the receiver match is wrong")
	}

	var testOnly []string
	for _, name := range methods {
		if ast.IsExported(name) && !called[name] && facadeTestOnly[name] == "" {
			testOnly = append(testOnly, name)
		}
	}
	sort.Strings(testOnly)
	if len(testOnly) > 0 {
		t.Errorf("%d exported *PEMS method(s) have no caller outside tests: %s\n"+
			"call the owning layer from the test instead, or delete the method",
			len(testOnly), strings.Join(testOnly, ", "))
	}
	if len(methods) > facadeMethodLimit {
		sort.Strings(methods)
		t.Errorf("*PEMS has %d methods, limit %d: %s",
			len(methods), facadeMethodLimit, strings.Join(methods, ", "))
	}
}

// isPEMSReceiver reports whether a method receiver is *PEMS.
func isPEMSReceiver(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) != 1 {
		return false
	}
	star, ok := recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "PEMS"
}
