package query_test

import (
	"errors"
	"strings"
	"testing"

	"serena/internal/query"
)

// profiled evaluates plan with a fresh Profile installed, the way EXPLAIN
// ANALYZE does.
func profiled(t *testing.T, plan query.Node) (*query.Profile, *query.Result) {
	t.Helper()
	env, reg, _ := paperSetup()
	ctx := query.NewContext(env, reg, 0)
	ctx.Profile = query.NewProfile()
	res, err := query.EvaluateCtx(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return ctx.Profile, res
}

func TestInstrumentPreservesSemantics(t *testing.T) {
	env, reg, _ := paperSetup()
	plain, err := query.Evaluate(q2(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, res := profiled(t, q2())
	if !res.Relation.EqualContents(plain.Relation) {
		t.Fatal("profiled evaluation changed the result")
	}
	if !res.Actions.Equal(plain.Actions) {
		t.Fatal("profiled evaluation changed the action set")
	}
}

func TestTracedRecordsCardinalities(t *testing.T) {
	plan := q2()
	prof, res := profiled(t, plan)
	root := prof.Stats(plan)
	if root.Calls != 1 {
		t.Fatalf("root calls = %d, want 1", root.Calls)
	}
	if root.RowsOut != int64(res.Relation.Len()) {
		t.Fatalf("root rows_out = %d, want %d", root.RowsOut, res.Relation.Len())
	}
	// The root's input cardinality is its child's output cardinality.
	kids := plan.Children()
	if len(kids) != 1 {
		t.Fatalf("project arity = %d", len(kids))
	}
	child := prof.Stats(kids[0])
	if child.Calls != 1 {
		t.Fatalf("child calls = %d, want 1 (operands evaluate through the profile too)", child.Calls)
	}
	if root.RowsIn != child.RowsOut {
		t.Fatalf("rows_in %d != child rows_out %d", root.RowsIn, child.RowsOut)
	}
	if root.Wall < child.Wall {
		t.Fatalf("parent wall %s < child wall %s", root.Wall, child.Wall)
	}
	if root.Self > root.Wall {
		t.Fatalf("self %s > wall %s", root.Self, root.Wall)
	}
}

func TestTracedRender(t *testing.T) {
	plan := q2()
	prof, _ := profiled(t, plan)
	out := prof.Render(plan)
	for _, want := range []string{
		"project[photo]",
		"invoke[takePhoto]",
		"invoke[checkPhoto]",
		"cameras",
		"calls=1",
		"rows_out=",
		"time=",
		"self=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// The leaf renders deepest: indentation reflects the tree.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("Render produced %d lines, want 6 (one per operator):\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "project[photo]") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.Contains(lines[5], "  cameras") {
		t.Fatalf("leaf line = %q", lines[5])
	}
}

func TestInstrumentActiveQuery(t *testing.T) {
	env, reg, dev := paperSetup()
	ctx := query.NewContext(env, reg, 0)
	ctx.Profile = query.NewProfile()
	res, err := query.EvaluateCtx(q1(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions.Len() != 2 {
		t.Fatalf("Q1 action set Len = %d, want 2", res.Actions.Len())
	}
	sent := 0
	for _, m := range dev.Messengers {
		sent += len(m.Outbox())
	}
	if sent != 2 {
		t.Fatalf("messages sent = %d, want 2", sent)
	}
}

// TestProfileAnnotatesFailingOperator: profiling evaluates the caller's own
// tree — no rebuilt copy — and a failed evaluation still renders, with the
// error on the operator that raised it (and on the ancestors it propagated
// through) but not on the operands that succeeded below it.
func TestProfileAnnotatesFailingOperator(t *testing.T) {
	env, reg, _ := paperSetup()
	// cameras has no getTemperature binding pattern: β fails after its
	// operand evaluated.
	leaf := query.NewBase("cameras")
	bad := query.NewInvoke(leaf, "getTemperature", "")
	plan := query.NewProject(bad, "camera")
	ctx := query.NewContext(env, reg, 0)
	ctx.Profile = query.NewProfile()
	before := plan.String()
	if _, err := query.EvaluateCtx(plan, ctx); err == nil {
		t.Fatal("evaluation of an unresolvable binding pattern succeeded")
	}
	if plan.Child != query.Node(bad) || bad.Child != query.Node(leaf) || plan.String() != before {
		t.Fatalf("profiled evaluation rewired the plan: %s, was %s", plan, before)
	}
	if st := ctx.Profile.Stats(leaf); st.Err != nil || st.Calls != 1 || st.RowsOut == 0 {
		t.Fatalf("leaf stats = %+v, want one clean evaluation", st)
	}
	st := ctx.Profile.Stats(bad)
	if st.Err == nil {
		t.Fatal("failing operator carries no error")
	}
	if root := ctx.Profile.Stats(plan); !errors.Is(root.Err, st.Err) {
		t.Fatalf("root error = %v, want the propagated %v", root.Err, st.Err)
	}
	lines := strings.Split(strings.TrimRight(ctx.Profile.Render(plan), "\n"), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], "error=") || strings.Contains(lines[2], "error=") {
		t.Fatalf("rendered plan does not pin the error on β:\n%s", strings.Join(lines, "\n"))
	}
}
