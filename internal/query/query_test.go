package query_test

import (
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/value"
)

// paperSetup returns the scenario environment, registry and devices.
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

// q1 builds Q1 of Table 4:
// β_sendMessage(α_text:="Bonjour!"(σ_name≠"Carla"(contacts))).
func q1() query.Node {
	return query.NewInvoke(
		query.NewAssignConst(
			query.NewSelect(query.NewBase("contacts"),
				algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla")))),
			"text", value.NewString("Bonjour!")),
		"sendMessage", "")
}

// q1p builds Q1' of Table 4: the selection pulled above the invocation —
// same result, different action set.
func q1p() query.Node {
	return query.NewSelect(
		query.NewInvoke(
			query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("Bonjour!")),
			"sendMessage", ""),
		algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla"))))
}

// q2 builds Q2 of Table 4:
// π_photo(β_takePhoto(σ_quality≥5(β_checkPhoto(σ_area="office"(cameras))))).
func q2() query.Node {
	return query.NewProject(
		query.NewInvoke(
			query.NewSelect(
				query.NewInvoke(
					query.NewSelect(query.NewBase("cameras"),
						algebra.Compare(algebra.Attr("area"), algebra.Eq, algebra.Const(value.NewString("office")))),
					"checkPhoto", ""),
				algebra.Compare(algebra.Attr("quality"), algebra.Ge, algebra.Const(value.NewInt(5)))),
			"takePhoto", ""),
		"photo")
}

// q2p builds Q2' of Table 4: the area selection evaluated after checkPhoto —
// equivalent to Q2 because both invocations are passive (Example 7).
func q2p() query.Node {
	return query.NewProject(
		query.NewInvoke(
			query.NewSelect(
				query.NewInvoke(query.NewBase("cameras"), "checkPhoto", ""),
				algebra.NewAnd(
					algebra.Compare(algebra.Attr("quality"), algebra.Ge, algebra.Const(value.NewInt(5))),
					algebra.Compare(algebra.Attr("area"), algebra.Eq, algebra.Const(value.NewString("office"))))),
			"takePhoto", ""),
		"photo")
}

func TestQ1SendsToAllButCarla(t *testing.T) {
	env, reg, dev := paperSetup()
	res, err := query.Evaluate(q1(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("Q1 result Len = %d, want 2", res.Relation.Len())
	}
	sch := res.Relation.Schema()
	if !sch.IsReal("sent") || !sch.IsReal("text") {
		t.Fatal("Q1 must realize text and sent")
	}
	si := sch.RealIndex("sent")
	for _, tu := range res.Relation.Tuples() {
		if !tu[si].Bool() {
			t.Fatalf("message not sent: %v", tu)
		}
	}
	// Physical side effects: email got Nicolas, jabber got Francois, nobody
	// messaged Carla.
	emails := dev.Messengers["email"].Outbox()
	jabbers := dev.Messengers["jabber"].Outbox()
	if len(emails) != 1 || emails[0].Address != "nicolas@elysee.fr" || emails[0].Text != "Bonjour!" {
		t.Fatalf("email outbox = %v", emails)
	}
	if len(jabbers) != 1 || jabbers[0].Address != "francois@im.gouv.fr" {
		t.Fatalf("jabber outbox = %v", jabbers)
	}
}

func TestExample6ActionSets(t *testing.T) {
	env, reg, _ := paperSetup()
	r1, err := query.Evaluate(q1(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1p, err := query.Evaluate(q1p(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Actions_p(Q1) per Example 6.
	bonjour := func(addr string) value.Tuple {
		return value.Tuple{value.NewString(addr), value.NewString("Bonjour!")}
	}
	wantQ1 := query.NewActionSet()
	wantQ1.Add(query.Action{BP: "sendMessage[messenger]", Ref: "email", Input: bonjour("nicolas@elysee.fr")})
	wantQ1.Add(query.Action{BP: "sendMessage[messenger]", Ref: "jabber", Input: bonjour("francois@im.gouv.fr")})
	if !r1.Actions.Equal(wantQ1) {
		t.Fatalf("Actions(Q1) = %s\nwant %s", r1.Actions, wantQ1)
	}
	// Actions_p(Q1') additionally messages Carla.
	wantQ1p := query.NewActionSet()
	for _, a := range wantQ1.Sorted() {
		wantQ1p.Add(a)
	}
	wantQ1p.Add(query.Action{BP: "sendMessage[messenger]", Ref: "email", Input: bonjour("carla@elysee.fr")})
	if !r1p.Actions.Equal(wantQ1p) {
		t.Fatalf("Actions(Q1') = %s\nwant %s", r1p.Actions, wantQ1p)
	}
}

func TestExample7Equivalence(t *testing.T) {
	env, reg, _ := paperSetup()
	// Q1 ≢ Q1': same result, different action sets.
	v, err := query.CheckEquivalence(q1(), q1p(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Equivalent {
		t.Fatal("Q1 and Q1' must NOT be equivalent (Example 7)")
	}
	if !v.SameResult {
		t.Fatal("Q1 and Q1' should produce the same resulting X-Relation")
	}
	if v.SameActions {
		t.Fatal("Q1 and Q1' action sets must differ")
	}
	if !strings.Contains(v.Reason, "action sets differ") {
		t.Fatalf("Reason = %q", v.Reason)
	}
	// Q2 ≡ Q2': passive prototypes, empty action sets.
	v2, err := query.CheckEquivalence(q2(), q2p(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Equivalent {
		t.Fatalf("Q2 and Q2' must be equivalent (Example 7): %s", v2.Reason)
	}
	r2, _ := query.Evaluate(q2(), env, reg, 0)
	if r2.Actions.Len() != 0 {
		t.Fatalf("Q2 action set must be empty, got %s", r2.Actions)
	}
}

func TestQ2TakesOfficePhotos(t *testing.T) {
	env, reg, dev := paperSetup()
	res, err := query.Evaluate(q2(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// camera02 covers the office with native quality 7 (±2 by lighting) —
	// at instant 0 the assess() is deterministic; quality ≥ 5 holds.
	if res.Relation.Len() != 1 {
		t.Fatalf("Q2 Len = %d, want 1 office photo", res.Relation.Len())
	}
	if got := res.Relation.Schema().Names(); len(got) != 1 || got[0] != "photo" {
		t.Fatalf("Q2 schema = %v", got)
	}
	if dev.Cameras["camera02"].Shots() != 1 {
		t.Fatal("camera02 should have taken exactly one photo")
	}
	if dev.Cameras["camera01"].Shots() != 0 || dev.Cameras["webcam07"].Shots() != 0 {
		t.Fatal("only the office camera should shoot under Q2")
	}
}

func TestQ2PrimeInvokesMoreButSameResult(t *testing.T) {
	env, reg, _ := paperSetup()
	r2, err := query.Evaluate(q2(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2p, err := query.Evaluate(q2p(), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Relation.EqualContents(r2p.Relation) {
		t.Fatal("Q2 and Q2' results differ")
	}
	// The pushed-down Q2 performs strictly fewer passive invocations — the
	// whole point of the Table 5 rewrites.
	if r2.Stats.Passive >= r2p.Stats.Passive {
		t.Fatalf("Q2 passive invocations (%d) should be < Q2' (%d)",
			r2.Stats.Passive, r2p.Stats.Passive)
	}
}

func TestSensorQueryWithMeanPattern(t *testing.T) {
	// "Retrieve temperatures for a given location" (Section 1.2).
	env, reg, _ := paperSetup()
	q := query.NewInvoke(
		query.NewSelect(query.NewBase("sensors"),
			algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString("office")))),
		"getTemperature", "")
	res, err := query.Evaluate(q, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 { // sensor06, sensor07
		t.Fatalf("Len = %d, want 2", res.Relation.Len())
	}
	ti := res.Relation.Schema().RealIndex("temperature")
	for _, tu := range res.Relation.Tuples() {
		if tu[ti].Real() < 15 || tu[ti].Real() > 30 {
			t.Fatalf("implausible temperature %v", tu[ti])
		}
	}
	if res.Actions.Len() != 0 {
		t.Fatal("passive query must have an empty action set")
	}
}

func TestMemoizationWithinInstant(t *testing.T) {
	// Two rows referencing the same sensor: the passive invocation is
	// memoized within the instant (deterministic services, Section 3.2).
	reg, dev := paperenv.MustRegistry()
	dup := algebra.MustNew(paperenv.SensorsSchema(), []value.Tuple{
		{value.NewService("sensor01"), value.NewString("corridor")},
		{value.NewService("sensor01"), value.NewString("hall")},
	})
	env := query.MapEnv{"sensors": dup}
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	res, err := query.Evaluate(q, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("Len = %d", res.Relation.Len())
	}
	if res.Stats.Passive != 1 || res.Stats.Memoized != 1 {
		t.Fatalf("stats = %+v, want 1 physical + 1 memoized", res.Stats)
	}
	if dev.Sensors["sensor01"].Invocations() != 1 {
		t.Fatal("sensor should be physically invoked once")
	}
}

func TestMemoizationDisabled(t *testing.T) {
	reg, dev := paperenv.MustRegistry()
	dup := algebra.MustNew(paperenv.SensorsSchema(), []value.Tuple{
		{value.NewService("sensor01"), value.NewString("corridor")},
		{value.NewService("sensor01"), value.NewString("hall")},
	})
	ctx := query.NewContext(query.MapEnv{"sensors": dup}, reg, 0)
	ctx.Memo = nil // ablation
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	if _, err := q.Eval(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.Passive != 2 || ctx.Stats.Memoized != 0 {
		t.Fatalf("stats = %+v, want 2 physical", ctx.Stats)
	}
	if dev.Sensors["sensor01"].Invocations() != 2 {
		t.Fatal("sensor should be invoked twice without memo")
	}
}

func TestActiveInvocationsAreNeverMemoized(t *testing.T) {
	env, reg, dev := paperSetup()
	// Two different contacts share the email service but have different
	// addresses → two actions; sending twice to the SAME address via two
	// query branches would still fire twice physically.
	dup := query.NewUnion(q1(), q1())
	// q1 ∪ q1 has identical subtrees; evaluation runs both.
	if _, err := query.Evaluate(dup, env, reg, 0); err != nil {
		t.Fatal(err)
	}
	// 2 tuples × 2 branches = 4 physical sends (2 to each address).
	total := len(dev.Messengers["email"].Outbox()) + len(dev.Messengers["jabber"].Outbox())
	if total != 4 {
		t.Fatalf("active invocations = %d, want 4 (never memoized)", total)
	}
}

func TestResultSchemaMatchesEvalSchema(t *testing.T) {
	env, reg, _ := paperSetup()
	for _, q := range []query.Node{q1(), q1p(), q2(), q2p()} {
		want, err := q.ResultSchema(env)
		if err != nil {
			t.Fatalf("%s: ResultSchema: %v", q, err)
		}
		res, err := query.Evaluate(q, env, reg, 0)
		if err != nil {
			t.Fatalf("%s: Eval: %v", q, err)
		}
		if !res.Relation.Schema().Equal(want) {
			t.Fatalf("%s: planned schema %v differs from evaluated schema %v",
				q, want.Names(), res.Relation.Schema().Names())
		}
	}
}

func TestSetOpNodes(t *testing.T) {
	env, reg, _ := paperSetup()
	carla := query.NewSelect(query.NewBase("contacts"),
		algebra.Compare(algebra.Attr("name"), algebra.Eq, algebra.Const(value.NewString("Carla"))))
	others := query.NewSelect(query.NewBase("contacts"),
		algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla"))))
	u, err := query.Evaluate(query.NewUnion(carla, others), env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Relation.Len() != 3 {
		t.Fatalf("union Len = %d", u.Relation.Len())
	}
	i, err := query.Evaluate(query.NewIntersect(carla, others), env, reg, 0)
	if err != nil || i.Relation.Len() != 0 {
		t.Fatalf("intersect Len = %d, err %v", i.Relation.Len(), err)
	}
	d, err := query.Evaluate(query.NewDiff(query.NewBase("contacts"), carla), env, reg, 0)
	if err != nil || d.Relation.Len() != 2 {
		t.Fatalf("diff Len = %d, err %v", d.Relation.Len(), err)
	}
	// Schema mismatch detection at planning time.
	bad := query.NewUnion(query.NewBase("contacts"), query.NewBase("cameras"))
	if _, err := bad.ResultSchema(env); err == nil {
		t.Fatal("union of different schemas accepted")
	}
}

func TestWindowStreamRejectedInOneShot(t *testing.T) {
	env, reg, _ := paperSetup()
	w := query.NewWindow(query.NewBase("sensors"), 1)
	if _, err := query.Evaluate(w, env, reg, 0); err == nil {
		t.Fatal("window must be rejected in one-shot evaluation")
	}
	s := query.NewStream(query.NewBase("sensors"), query.StreamInsertion)
	if _, err := query.Evaluate(s, env, reg, 0); err == nil {
		t.Fatal("stream must be rejected in one-shot evaluation")
	}
}

func TestStringRendering(t *testing.T) {
	s := q1().String()
	want := `invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)))`
	if s != want {
		t.Fatalf("Q1 SAL = %q\nwant     %q", s, want)
	}
	w := query.NewStream(query.NewWindow(query.NewBase("temperatures"), 1), query.StreamInsertion)
	if w.String() != "stream[insertion](window[1](temperatures))" {
		t.Fatalf("continuous SAL = %q", w.String())
	}
	iq := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "sensor")
	if iq.String() != "invoke[getTemperature@sensor](sensors)" {
		t.Fatalf("qualified invoke SAL = %q", iq.String())
	}
	r := query.NewRename(query.NewBase("t"), "location", "area")
	if r.String() != "rename[location -> area](t)" {
		t.Fatalf("rename SAL = %q", r.String())
	}
	a := query.NewAssignAttr(query.NewBase("c"), "text", "address")
	if a.String() != "assign[text := address](c)" {
		t.Fatalf("assign-attr SAL = %q", a.String())
	}
}

func TestWalk(t *testing.T) {
	var kinds []string
	query.Walk(q1(), func(n query.Node) {
		switch n.(type) {
		case *query.Invoke:
			kinds = append(kinds, "invoke")
		case *query.Assign:
			kinds = append(kinds, "assign")
		case *query.Select:
			kinds = append(kinds, "select")
		case *query.Base:
			kinds = append(kinds, "base")
		}
	})
	if strings.Join(kinds, ",") != "invoke,assign,select,base" {
		t.Fatalf("Walk order = %v", kinds)
	}
}

func TestUnknownBaseRelation(t *testing.T) {
	env, reg, _ := paperSetup()
	if _, err := query.Evaluate(query.NewBase("ghost"), env, reg, 0); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := query.NewBase("ghost").ResultSchema(env); err == nil {
		t.Fatal("unknown relation accepted by ResultSchema")
	}
}

func TestActionSetBasics(t *testing.T) {
	s := query.NewActionSet()
	a := query.Action{BP: "p[x]", Ref: "svc", Input: value.Tuple{value.NewInt(1)}}
	s.Add(a)
	s.Add(a) // idempotent
	if s.Len() != 1 {
		t.Fatal("ActionSet set semantics broken")
	}
	if got := s.String(); got != "{(p[x], svc, (1))}" {
		t.Fatalf("String = %q", got)
	}
	o := query.NewActionSet()
	if s.Equal(o) {
		t.Fatal("unequal sets reported equal")
	}
	o.Add(query.Action{BP: "p[x]", Ref: "svc2", Input: value.Tuple{value.NewInt(1)}})
	if s.Equal(o) {
		t.Fatal("sets with same size but different members reported equal")
	}
}
