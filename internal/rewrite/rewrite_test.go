package rewrite_test

import (
	"math/rand"
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/rewrite"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

func paperSetup() (query.MapEnv, *service.Registry, *paperenv.Devices) {
	reg, dev := paperenv.MustRegistry()
	env := query.MapEnv{
		"contacts":     paperenv.Contacts(),
		"cameras":      paperenv.Cameras(),
		"sensors":      paperenv.Sensors(),
		"surveillance": paperenv.Surveillance(),
	}
	return env, reg, dev
}

// mustEquivalent asserts q ≡ rewritten over the given environment.
func mustEquivalent(t *testing.T, before, after query.Node, env query.MapEnv, reg *service.Registry) {
	t.Helper()
	v, err := query.CheckEquivalence(before, after, env, reg, 0)
	if err != nil {
		t.Fatalf("equivalence check failed: %v", err)
	}
	if !v.Equivalent {
		t.Fatalf("rewrite not equivalent: %s\nbefore: %s\nafter:  %s", v.Reason, before, after)
	}
}

func rewriteAll(t *testing.T, q query.Node, env query.Environment) (query.Node, []rewrite.Step) {
	t.Helper()
	out, steps, err := rewrite.Apply(q, env, rewrite.DefaultRules())
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return out, steps
}

func TestTable5RuleSelectBelowAssign(t *testing.T) {
	env, reg, _ := paperSetup()
	// σ_name≠Carla(α_text:=Bonjour(contacts)) → α(σ(contacts)).
	q := query.NewSelect(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("Bonjour!")),
		algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla"))))
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-select-below-assign" {
		t.Fatalf("steps = %+v", steps)
	}
	if _, ok := out.(*query.Assign); !ok {
		t.Fatalf("assign should now be the root: %s", out)
	}
	mustEquivalent(t, q, out, env, reg)
}

func TestTable5RuleSelectBelowAssignBlockedByRealizedAttr(t *testing.T) {
	env, _, _ := paperSetup()
	// F references the realized attribute 'text' → rule must not fire.
	q := query.NewSelect(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("Bonjour!")),
		algebra.Compare(algebra.Attr("text"), algebra.Eq, algebra.Const(value.NewString("Bonjour!"))))
	out, steps := rewriteAll(t, q, env)
	if len(steps) != 0 {
		t.Fatalf("rule fired illegally: %+v, %s", steps, out)
	}
}

func TestTable5RuleSelectBelowPassiveInvoke(t *testing.T) {
	env, reg, _ := paperSetup()
	// σ_area=office(β_checkPhoto(cameras)) → β(σ(cameras)): fewer passive
	// invocations, same result, same (empty) action set.
	q := query.NewSelect(
		query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
		algebra.Compare(algebra.Attr("area"), algebra.Eq, algebra.Const(value.NewString("office"))))
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-select-below-invoke" {
		t.Fatalf("steps = %+v", steps)
	}
	mustEquivalent(t, q, out, env, reg)
	// Invocations drop to the selected rows: 1 office camera out of 3.
	rBefore, _ := query.Evaluate(q, env, reg, 0)
	rAfter, _ := query.Evaluate(out, env, reg, 0)
	if rBefore.Stats.Passive != 3 || rAfter.Stats.Passive != 1 {
		t.Fatalf("pushdown invocations: %d → %d, want 3 → 1",
			rBefore.Stats.Passive, rAfter.Stats.Passive)
	}
}

func TestTable5RuleSelectBelowInvokeBlockedByOutputAttr(t *testing.T) {
	env, _, _ := paperSetup()
	// σ_quality≥5 depends on checkPhoto's output → cannot push.
	q := query.NewSelect(
		query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
		algebra.Compare(algebra.Attr("quality"), algebra.Ge, algebra.Const(value.NewInt(5))))
	_, steps := rewriteAll(t, q, env)
	for _, s := range steps {
		if s.Rule == "push-select-below-invoke" {
			t.Fatalf("rule fired despite output dependency: %+v", steps)
		}
	}
}

func TestActiveInvokeBlocksSelectionPushdown(t *testing.T) {
	env, reg, _ := paperSetup()
	// Q1' = σ_name≠Carla(β_sendMessage(α_text:=Bonjour(contacts))). Pushing
	// the σ below the ACTIVE β would turn it into Q1 and change the action
	// set (Example 7) — the rewriter must refuse.
	q1p := query.NewSelect(
		query.NewInvoke(
			query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("Bonjour!")),
			"sendMessage", ""),
		algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla"))))
	out, steps := rewriteAll(t, q1p, env)
	for _, s := range steps {
		if s.Rule == "push-select-below-invoke" {
			t.Fatalf("selection pushed below ACTIVE invoke: %+v", steps)
		}
	}
	// Whatever fired (nothing should), the action set must be preserved.
	mustEquivalent(t, q1p, out, env, reg)
}

func TestTable5RuleProjectBelowAssign(t *testing.T) {
	env, reg, _ := paperSetup()
	q := query.NewProject(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("Hi")),
		"name", "text")
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-project-below-assign" {
		t.Fatalf("steps = %+v", steps)
	}
	mustEquivalent(t, q, out, env, reg)
	// Blocked when the projection drops the assigned attribute's source.
	q2 := query.NewProject(
		query.NewAssignAttr(query.NewBase("contacts"), "text", "address"),
		"name", "text") // drops 'address'
	_, steps2 := rewriteAll(t, q2, env)
	for _, s := range steps2 {
		if s.Rule == "push-project-below-assign" {
			t.Fatalf("rule fired despite missing source: %+v", steps2)
		}
	}
}

func TestTable5RuleProjectBelowInvoke(t *testing.T) {
	env, reg, _ := paperSetup()
	// π keeps camera, area, quality, delay — everything checkPhoto needs.
	q := query.NewProject(
		query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
		"camera", "area", "quality", "delay")
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-project-below-invoke" {
		t.Fatalf("steps = %+v", steps)
	}
	mustEquivalent(t, q, out, env, reg)
	// Blocked when L misses an output attribute (schema would change).
	q2 := query.NewProject(
		query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
		"camera", "area", "quality")
	_, steps2 := rewriteAll(t, q2, env)
	for _, s := range steps2 {
		if s.Rule == "push-project-below-invoke" {
			t.Fatalf("rule fired despite dropped output: %+v", steps2)
		}
	}
}

func TestTable5RuleAssignBelowJoin(t *testing.T) {
	env, reg, _ := paperSetup()
	// α_text:=Bonjour(contacts ⋈ surveillance): 'text' lives in contacts
	// only → push into the left operand.
	q := query.NewAssignConst(
		query.NewJoin(query.NewBase("contacts"), query.NewBase("surveillance")),
		"text", value.NewString("Bonjour!"))
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-assign-below-join" {
		t.Fatalf("steps = %+v", steps)
	}
	if _, ok := out.(*query.Join); !ok {
		t.Fatalf("join should be root after push: %s", out)
	}
	mustEquivalent(t, q, out, env, reg)
}

func TestClassicalSelectBelowJoin(t *testing.T) {
	env, reg, _ := paperSetup()
	q := query.NewSelect(
		query.NewJoin(query.NewBase("contacts"), query.NewBase("surveillance")),
		algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString("office"))))
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-select-below-join" {
		t.Fatalf("steps = %+v", steps)
	}
	mustEquivalent(t, q, out, env, reg)
	// A formula over the shared attribute 'name' may be pushed to either
	// side; result must be preserved.
	q2 := query.NewSelect(
		query.NewJoin(query.NewBase("contacts"), query.NewBase("surveillance")),
		algebra.Compare(algebra.Attr("name"), algebra.Eq, algebra.Const(value.NewString("Carla"))))
	out2, _ := rewriteAll(t, q2, env)
	mustEquivalent(t, q2, out2, env, reg)
}

func TestMergeSelects(t *testing.T) {
	env, reg, _ := paperSetup()
	q := query.NewSelect(
		query.NewSelect(query.NewBase("contacts"),
			algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla")))),
		algebra.Compare(algebra.Attr("messenger"), algebra.Eq, algebra.Const(value.NewService("email"))))
	out, steps := rewriteAll(t, q, env)
	found := false
	for _, s := range steps {
		if s.Rule == "merge-selects" {
			found = true
		}
	}
	if !found {
		t.Fatalf("merge-selects did not fire: %+v", steps)
	}
	mustEquivalent(t, q, out, env, reg)
}

func TestQ2PrimeRewritesTowardsQ2(t *testing.T) {
	env, reg, _ := paperSetup()
	// Q2'' = π_photo(β_take(σ_quality≥5(σ_area=office(β_check(cameras))))):
	// the area selection must sink below checkPhoto, reducing invocations
	// like the paper's Q2.
	q := query.NewProject(
		query.NewInvoke(
			query.NewSelect(
				query.NewSelect(
					query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
					algebra.Compare(algebra.Attr("area"), algebra.Eq, algebra.Const(value.NewString("office")))),
				algebra.Compare(algebra.Attr("quality"), algebra.Ge, algebra.Const(value.NewInt(5)))),
			"takePhoto", ""),
		"photo")
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 {
		t.Fatal("no rewrites fired on Q2''")
	}
	mustEquivalent(t, q, out, env, reg)
	rBefore, _ := query.Evaluate(q, env, reg, 0)
	rAfter, _ := query.Evaluate(out, env, reg, 0)
	if rAfter.Stats.Passive >= rBefore.Stats.Passive {
		t.Fatalf("optimized Q2'' should invoke less: %d → %d",
			rBefore.Stats.Passive, rAfter.Stats.Passive)
	}
	if !strings.Contains(out.String(), `invoke[checkPhoto](select[area = "office"]`) {
		t.Fatalf("area selection not pushed below checkPhoto:\n%s", out)
	}
}

// TestRandomizedRewriteEquivalence fuzzes the rule set: random sensor-style
// environments, random queries built from σ/α/β/π over them, rewritten and
// checked for Definition 9 equivalence.
func TestRandomizedRewriteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	locations := []string{"office", "corridor", "roof", "lab"}
	for trial := 0; trial < 30; trial++ {
		reg, _ := paperenv.MustRegistry()
		// Random extra sensors.
		n := 2 + rng.Intn(6)
		tuples := make([]value.Tuple, 0, n)
		for i := 0; i < n; i++ {
			ref := []string{"sensor01", "sensor06", "sensor07", "sensor22"}[rng.Intn(4)]
			loc := locations[rng.Intn(len(locations))]
			tuples = append(tuples, value.Tuple{value.NewService(ref), value.NewString(loc)})
		}
		sensors := algebra.MustNew(paperenv.SensorsSchema(), tuples)
		env := query.MapEnv{"sensors": sensors}

		var q query.Node = query.NewBase("sensors")
		q = query.NewInvoke(q, "getTemperature", "")
		// Random post-invoke selections that may or may not be pushable.
		if rng.Intn(2) == 0 {
			q = query.NewSelect(q, algebra.Compare(algebra.Attr("location"), algebra.Eq,
				algebra.Const(value.NewString(locations[rng.Intn(len(locations))]))))
		}
		if rng.Intn(2) == 0 {
			q = query.NewSelect(q, algebra.Compare(algebra.Attr("temperature"), algebra.Gt,
				algebra.Const(value.NewReal(float64(rng.Intn(40))))))
		}
		if rng.Intn(2) == 0 {
			q = query.NewProject(q, "sensor", "location", "temperature")
		}
		out, _, err := rewrite.Apply(q, env, rewrite.DefaultRules())
		if err != nil {
			t.Fatalf("trial %d: rewrite error: %v\nq = %s", trial, err, q)
		}
		v, err := query.CheckEquivalence(q, out, env, reg, service.Instant(trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !v.Equivalent {
			t.Fatalf("trial %d: rewrite broke equivalence (%s)\nbefore: %s\nafter:  %s",
				trial, v.Reason, q, out)
		}
	}
}

func TestRewriteIdempotentAtFixpoint(t *testing.T) {
	env, _, _ := paperSetup()
	q := query.NewSelect(
		query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
		algebra.Compare(algebra.Attr("area"), algebra.Eq, algebra.Const(value.NewString("office"))))
	out1, _, err := rewrite.Apply(q, env, rewrite.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	out2, steps2, err := rewrite.Apply(out1, env, rewrite.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps2) != 0 {
		t.Fatalf("second rewrite pass applied steps: %+v", steps2)
	}
	if out1.String() != out2.String() {
		t.Fatal("fixpoint not stable")
	}
}

func TestPushAssignBelowJoinRightSide(t *testing.T) {
	env, reg, _ := paperSetup()
	// 'text' lives in contacts, which is the RIGHT operand here.
	q := query.NewAssignConst(
		query.NewJoin(query.NewBase("surveillance"), query.NewBase("contacts")),
		"text", value.NewString("Bonjour!"))
	out, steps := rewriteAll(t, q, env)
	if len(steps) == 0 || steps[0].Rule != "push-assign-below-join" {
		t.Fatalf("steps = %+v", steps)
	}
	mustEquivalent(t, q, out, env, reg)
}

func TestPushAssignBelowJoinBlockedBySharedAttr(t *testing.T) {
	env, _, _ := paperSetup()
	// Assigning an attribute present on BOTH sides may not be pushed into
	// one operand (it would change the join attribute set).
	q := query.NewAssignConst(
		query.NewJoin(query.NewBase("contacts"), query.NewBase("msgs")),
		"text", value.NewString("x"))
	env2 := env
	env2["msgs"] = algebra.MustNew(
		schemaWithVirtualText(t), []value.Tuple{{value.NewString("m1")}})
	_, steps := rewriteAll(t, q, env2)
	for _, s := range steps {
		if s.Rule == "push-assign-below-join" {
			t.Fatalf("pushed despite shared attribute: %+v", steps)
		}
	}
}

func TestSelectBelowJoinBlockedByMixedStatus(t *testing.T) {
	env, _, _ := paperSetup()
	// Formula over 'text', which is virtual in contacts but real in msgs:
	// pushing σ_text to the msgs side would be unsound if contacts' side
	// had it real... here it is virtual in contacts, so pushing to msgs is
	// allowed only when contacts' text is not real — verify no crash and
	// equivalence either way.
	env2 := env
	env2["msgs"] = algebra.MustNew(
		schemaWithRealText(t), []value.Tuple{{value.NewString("ping")}})
	q := query.NewSelect(
		query.NewJoin(query.NewBase("contacts"), query.NewBase("msgs")),
		algebra.Compare(algebra.Attr("text"), algebra.Eq, algebra.Const(value.NewString("ping"))))
	reg, _ := paperenv.MustRegistry()
	out, _ := rewriteAll(t, q, env2)
	mustEquivalent(t, q, out, env2, reg)
}

func TestRewriteErrorPropagation(t *testing.T) {
	env, _, _ := paperSetup()
	// Rewriting a plan over an unknown relation surfaces the schema error.
	q := query.NewSelect(query.NewInvoke(query.NewBase("ghost"), "p", ""), algebra.True{})
	if _, _, err := rewrite.Apply(q, env, rewrite.DefaultRules()); err == nil {
		t.Fatal("schema error swallowed")
	}
}

func schemaWithVirtualText(t *testing.T) *schema.Extended {
	t.Helper()
	return schema.MustExtended("msgs", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "mid", Type: value.String}},
		{Attribute: schema.Attribute{Name: "text", Type: value.String}, Virtual: true},
	}, nil)
}

func schemaWithRealText(t *testing.T) *schema.Extended {
	t.Helper()
	return schema.MustExtended("msgs", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "text", Type: value.String}},
	}, nil)
}
