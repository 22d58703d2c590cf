package query_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/query"
	"serena/internal/value"
)

// TestNodeContracts exercises ResultSchema/Eval/Children/String uniformly
// for every node type over the paper environment, and that WithChildren
// rebuilds each kind faithfully. The table must name every Node
// implementation of the package: a new node type without a row (and so,
// most likely, without a WithChildren case) fails the guard at the end.
func TestNodeContracts(t *testing.T) {
	env, reg, _ := paperSetup()
	nodes := []struct {
		name       string
		node       query.Node
		children   int
		salForm    string
		schemaOnly bool // continuous nodes: schema derivable, eval rejected
	}{
		{"base", query.NewBase("contacts"), 0, "contacts", false},
		{"project", query.NewProject(query.NewBase("contacts"), "name"), 1, "project[name](contacts)", false},
		{"select", query.NewSelect(query.NewBase("contacts"), algebra.True{}), 1, "select[true](contacts)", false},
		{"rename", query.NewRename(query.NewBase("contacts"), "name", "who"), 1, "rename[name -> who](contacts)", false},
		{"join", query.NewJoin(query.NewBase("contacts"), query.NewBase("surveillance")), 2, "join(contacts, surveillance)", false},
		{"union", query.NewUnion(query.NewBase("contacts"), query.NewBase("contacts")), 2, "union(contacts, contacts)", false},
		{"intersect", query.NewIntersect(query.NewBase("contacts"), query.NewBase("contacts")), 2, "intersect(contacts, contacts)", false},
		{"diff", query.NewDiff(query.NewBase("contacts"), query.NewBase("contacts")), 2, "diff(contacts, contacts)", false},
		{"assign", query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("x")), 1, `assign[text := "x"](contacts)`, false},
		{"invoke", query.NewInvoke(query.NewBase("sensors"), "getTemperature", ""), 1, "invoke[getTemperature](sensors)", false},
		{"aggregate", query.NewAggregate(query.NewBase("surveillance"), []string{"location"},
			[]algebra.AggSpec{{Func: algebra.Count, As: "n"}}), 1, "aggregate[count(*) as n by location](surveillance)", false},
		{"window", query.NewWindow(query.NewBase("contacts"), 5), 1, "window[5](contacts)", true},
		{"stream", query.NewStream(query.NewBase("contacts"), query.StreamDeletion), 1, "stream[deletion](contacts)", true},
	}
	covered := map[string]bool{}
	for _, c := range nodes {
		covered[reflect.TypeOf(c.node).Elem().Name()] = true
		if got := len(c.node.Children()); got != c.children {
			t.Errorf("%s: children = %d, want %d", c.name, got, c.children)
		}
		if rebuilt, err := query.WithChildren(c.node, c.node.Children()); err != nil {
			t.Errorf("%s: WithChildren: %v", c.name, err)
		} else {
			if got := rebuilt.String(); got != c.salForm {
				t.Errorf("%s: rebuilt String = %q, want %q", c.name, got, c.salForm)
			}
			want, _ := c.node.ResultSchema(env)
			if got, err := rebuilt.ResultSchema(env); err != nil || !got.Equal(want) {
				t.Errorf("%s: rebuilt ResultSchema = %v, %v; want %v", c.name, got, err, want)
			}
		}
		// A plan line labels the operator with its SAL head, operands cut.
		line := query.RenderPlan([]query.PlanLine{{Op: c.node}}, false)
		label := line[:strings.Index(line, "  calls=")]
		rest := strings.TrimPrefix(c.salForm, label)
		if rest == c.salForm || (c.children == 0) != (rest == "") || (c.children > 0 && rest[0] != '(') {
			t.Errorf("%s: plan label %q is not the head of %q", c.name, label, c.salForm)
		}
		if _, err := query.WithChildren(c.node, make([]query.Node, c.children+1)); err == nil {
			t.Errorf("%s: WithChildren accepted %d operands", c.name, c.children+1)
		}
		if got := c.node.String(); got != c.salForm {
			t.Errorf("%s: String = %q, want %q", c.name, got, c.salForm)
		}
		if _, err := c.node.ResultSchema(env); err != nil {
			t.Errorf("%s: ResultSchema: %v", c.name, err)
		}
		_, err := query.Evaluate(c.node, env, reg, 0)
		if c.schemaOnly {
			if err == nil {
				t.Errorf("%s: one-shot eval should be rejected", c.name)
			}
		} else if err != nil {
			t.Errorf("%s: Eval: %v", c.name, err)
		}
	}
	for _, typ := range nodeTypes(t) {
		if !covered[typ] {
			t.Errorf("node type %s has no row in this table", typ)
		}
	}
}

// nodeTypes lists the package's Node implementations: every type of the
// non-test sources with an Eval(*Context) method.
func nodeTypes(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, f := range pkgs["query"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Eval" {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name != "Context" {
					types = append(types, id.Name)
				}
			}
		}
	}
	if len(types) == 0 {
		t.Fatal("found no Node implementations — is the test running in the package directory?")
	}
	return types
}

func TestAggregateNodeEval(t *testing.T) {
	env, reg, _ := paperSetup()
	n := query.NewAggregate(query.NewBase("surveillance"), []string{"location"},
		[]algebra.AggSpec{{Func: algebra.Count, As: "n"}})
	res, err := query.Evaluate(n, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("groups = %d", res.Relation.Len())
	}
	// Schema errors propagate from planning.
	bad := query.NewAggregate(query.NewBase("surveillance"), []string{"ghost"},
		[]algebra.AggSpec{{Func: algebra.Count, As: "n"}})
	if _, err := bad.ResultSchema(env); err == nil {
		t.Fatal("bad aggregation accepted")
	}
	if _, err := query.Evaluate(bad, env, reg, 0); err == nil {
		t.Fatal("bad aggregation evaluated")
	}
}

func TestStreamKindFromString(t *testing.T) {
	for _, n := range []string{"insertion", "deletion", "heartbeat"} {
		k, ok := query.StreamKindFromString(n)
		if !ok || k.String() != n {
			t.Errorf("StreamKindFromString(%q) broken", n)
		}
	}
	if _, ok := query.StreamKindFromString("sideways"); ok {
		t.Error("bogus stream kind accepted")
	}
}

func TestErrorPropagationThroughNodes(t *testing.T) {
	env, reg, _ := paperSetup()
	bad := query.NewBase("ghost")
	// Every combinator must surface child errors.
	for _, n := range []query.Node{
		query.NewProject(bad, "x"),
		query.NewSelect(bad, algebra.True{}),
		query.NewRename(bad, "a", "b"),
		query.NewJoin(bad, query.NewBase("contacts")),
		query.NewJoin(query.NewBase("contacts"), bad),
		query.NewUnion(bad, bad),
		query.NewAssignConst(bad, "x", value.NewInt(1)),
		query.NewInvoke(bad, "p", ""),
		query.NewAggregate(bad, nil, []algebra.AggSpec{{Func: algebra.Count, As: "n"}}),
	} {
		if _, err := n.ResultSchema(env); err == nil {
			t.Errorf("%s: schema error not propagated", n)
		}
		if _, err := query.Evaluate(n, env, reg, 0); err == nil {
			t.Errorf("%s: eval error not propagated", n)
		}
	}
}

func TestInvokeErrorRendering(t *testing.T) {
	e := query.InvokeError{BP: "p[s]", Ref: "dev", Input: value.Tuple{value.NewInt(1)}, Err: errFixed}
	if got := e.Error(); got != "invoke p[s] on dev(1): boom" {
		t.Fatalf("Error() = %q", got)
	}
}

var errFixed = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }
