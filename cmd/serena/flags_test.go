package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// Flag caps for the two commands. Each flag doubles the configurations a
// test or benchmark could have to cover, so the count may only fall: a
// change that removes a flag lowers its cap in the same commit.
var flagCaps = []struct {
	path string
	cap  int
}{
	{"main.go", 21},
	{"../pemsd/main.go", 23},
}

// flagDefiners are the flag package's functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "Int64": true, "Int64Var": true, "IntVar": true,
	"String": true, "StringVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true,
}

// TestFlagCount fails when a command defines more flags than its cap.
func TestFlagCount(t *testing.T) {
	for _, c := range flagCaps {
		f, err := parser.ParseFile(token.NewFileSet(), c.path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && flagDefiners[sel.Sel.Name] {
				n++
			}
			return true
		})
		if n == 0 {
			t.Errorf("%s: found no flag definitions; the parse or the match is wrong", c.path)
		}
		if n > c.cap {
			t.Errorf("%s defines %d flags, cap %d: fold the new setting into an existing one or a constant", c.path, n, c.cap)
		}
	}
}
