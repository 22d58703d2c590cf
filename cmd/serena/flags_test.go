package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Flag caps for the two commands. Each flag doubles the configurations a
// test or benchmark could have to cover, so the count may only fall: a
// change that removes a flag lowers its cap in the same commit.
var flagCaps = []struct {
	pkg string
	cap int
}{
	{"serena/cmd/serena", 18},
	{"serena/cmd/pemsd", 23},
}

// usageFlag matches a flag's line in the flag package's usage output.
var usageFlag = regexp.MustCompile(`(?m)^  -([^ \t\n]+)`)

// TestFlagCount builds each command, asks it for its usage (-h) and fails
// when it registers more flags than its cap. The count is of the flags the
// binary actually registers, wherever they are declared — in its main or
// through pems.Config.Bind.
func TestFlagCount(t *testing.T) {
	dir := t.TempDir()
	for _, c := range flagCaps {
		bin := filepath.Join(dir, filepath.Base(c.pkg))
		if out, err := exec.Command("go", "build", "-o", bin, c.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", c.pkg, err, out)
		}
		// -h prints the usage and exits 0; nothing runs before flag.Parse.
		out, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", c.pkg, err, out)
		}
		n := len(usageFlag.FindAllSubmatch(out, -1))
		if n == 0 {
			t.Errorf("%s: found no flags in its usage; the build or the match is wrong:\n%s", c.pkg, out)
		}
		if n > c.cap {
			t.Errorf("%s registers %d flags, cap %d: fold the new setting into an existing one or a constant", c.pkg, n, c.cap)
		}
	}
}

// flagDefiners are the functions and *flag.FlagSet methods that define a
// flag, with the position of the flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "TextVar": 1, "UintVar": 1,
	"Uint64Var": 1, "Var": 1,
}

// TestFlagNamesDeclaredOnce scans every Go file of the module that imports
// the flag package and fails when a flag name is declared at more than one
// site: a setting both commands share is bound in one place
// (pems.Config.Bind), not parsed twice.
func TestFlagNamesDeclaredOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	sites := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !importsFlag(f) {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := flagDefiners[sel.Sel.Name]
			if !ok || len(call.Args) <= i {
				return true
			}
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			sites[name] = append(sites[name], fset.Position(lit.Pos()).String())
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) == 0 {
		t.Fatal("found no flag declarations; the walk or the match is wrong")
	}
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if at := sites[name]; len(at) > 1 {
			t.Errorf("flag -%s is declared at %d sites: %s", name, len(at), strings.Join(at, ", "))
		}
	}
}

// importsFlag reports whether a file imports the standard flag package.
func importsFlag(f *ast.File) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			return true
		}
	}
	return false
}
