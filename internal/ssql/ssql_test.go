package ssql_test

import (
	"strings"
	"testing"

	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/ssql"
)

func paperEnv() (query.MapEnv, *service.Registry, *paperenv.Devices) {
	reg, dev := paperenv.MustRegistry()
	env := query.MapEnv{
		"contacts":     paperenv.Contacts(),
		"cameras":      paperenv.Cameras(),
		"sensors":      paperenv.Sensors(),
		"surveillance": paperenv.Surveillance(),
	}
	return env, reg, dev
}

func compile(t *testing.T, src string, env query.Environment) query.Node {
	t.Helper()
	st, err := ssql.Compile(src, env)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return st
}

func TestSelectProjectWhere(t *testing.T) {
	env, reg, _ := paperEnv()
	st := compile(t, `SELECT name, address FROM contacts WHERE name != "Carla"`, env)
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("rows = %d", res.Relation.Len())
	}
	if got := res.Relation.Schema().Names(); len(got) != 2 || got[0] != "name" {
		t.Fatalf("schema = %v", got)
	}
}

func TestSelectStar(t *testing.T) {
	env, reg, _ := paperEnv()
	st := compile(t, `SELECT * FROM contacts`, env)
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Schema().Arity() != 5 {
		t.Fatalf("star should keep the full schema, got %v", res.Relation.Schema().Names())
	}
}

func TestQ1SemanticsWhereBeforeActiveInvoke(t *testing.T) {
	// The declarative WHERE restricts WHO is messaged: Serena SQL compiles
	// to Q1, not Q1' (the action set excludes Carla).
	env, reg, dev := paperEnv()
	st := compile(t, `SELECT * FROM contacts
		SET text := "Bonjour!"
		USING sendMessage
		WHERE name != "Carla"`, env)
	if !strings.Contains(st.String(), `invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"]`) {
		t.Fatalf("WHERE not placed before the active invoke:\n%s", st.String())
	}
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions.Len() != 2 {
		t.Fatalf("actions = %s (Carla must not be messaged)", res.Actions)
	}
	if len(dev.Messengers["email"].Outbox()) != 1 {
		t.Fatal("exactly one email expected")
	}
}

func TestQ2TwoInvokesWithSplitWhere(t *testing.T) {
	env, reg, dev := paperEnv()
	st := compile(t, `SELECT photo FROM cameras
		USING checkPhoto, takePhoto
		WHERE area = "office" AND quality >= 5`, env)
	// area conjunct sits below checkPhoto; quality between check and take.
	if !strings.Contains(st.String(), `invoke[checkPhoto](select[area = "office"](cameras))`) {
		t.Fatalf("area filter not pushed to the base:\n%s", st.String())
	}
	if !strings.Contains(st.String(), `invoke[takePhoto](select[quality >= 5]`) {
		t.Fatalf("quality filter not placed after checkPhoto:\n%s", st.String())
	}
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 1 || res.Stats.Passive != 2 {
		t.Fatalf("rows=%d passive=%d, want 1/2", res.Relation.Len(), res.Stats.Passive)
	}
	if dev.Cameras["camera01"].Shots() != 0 {
		t.Fatal("corridor camera must not shoot")
	}
}

func TestNaturalJoinAndGroupBy(t *testing.T) {
	env, reg, _ := paperEnv()
	st := compile(t, `SELECT location, mean(temperature) AS avgtemp
		FROM sensors USING getTemperature GROUP BY location`, env)
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("groups = %d", res.Relation.Len())
	}
	sch := res.Relation.Schema()
	li, ai := sch.RealIndex("location"), sch.RealIndex("avgtemp")
	for _, tu := range res.Relation.Tuples() {
		if tu[li].Str() == "office" && tu[ai].Real() != 21.5 {
			t.Fatalf("office mean = %v", tu[ai])
		}
	}
	// Implicit grouping: plain attrs become the grouping key.
	st2 := compile(t, `SELECT location, count(*) AS n FROM sensors`, env)
	res2, err := query.Evaluate(st2, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Relation.Len() != 3 {
		t.Fatalf("implicit grouping rows = %d", res2.Relation.Len())
	}
}

func TestJoinQuery(t *testing.T) {
	env, reg, _ := paperEnv()
	st := compile(t, `SELECT name, location FROM contacts NATURAL JOIN surveillance`, env)
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("rows = %d", res.Relation.Len())
	}
}

func TestDefaultAggregateNames(t *testing.T) {
	env, _, _ := paperEnv()
	st := compile(t, `SELECT count(*), max(location) FROM surveillance`, env)
	sch, err := st.ResultSchema(env)
	if err != nil {
		t.Fatal(err)
	}
	names := sch.Names()
	if names[0] != "count" || names[1] != "max_location" {
		t.Fatalf("default names = %v", names)
	}
}

func TestCompileErrors(t *testing.T) {
	env, _, _ := paperEnv()
	bad := []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT name FROM ghost`,
		`SELECT ghost FROM contacts`,
		`SELECT * FROM contacts WHERE sent = true`,                  // virtual forever (never realized)
		`SELECT * FROM contacts GROUP BY name`,                      // GROUP BY without aggregate
		`SELECT name, count(*) AS n FROM contacts GROUP BY address`, // name not grouped
		`SELECT * FROM contacts USING ghostProto`,
		`SELECT * FROM contacts SET name := 3`, // assigning a real attribute
		`SELECT * FROM contacts STREAMING sideways`,
		`SELECT * FROM contacts; trailing`,
		`SELECT median(x) FROM contacts`,
		`SELECT sum(*) FROM contacts`,
		`SELECT * FROM temperatures[0]`,
	}
	for _, src := range bad {
		if _, err := ssql.Compile(src, env); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestWhereNeverRealizableReportsCause(t *testing.T) {
	env, _, _ := paperEnv()
	_, err := ssql.Compile(`SELECT * FROM cameras WHERE quality >= 5`, env)
	if err == nil || !strings.Contains(err.Error(), "cannot be applied") {
		t.Fatalf("err = %v", err)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	env, _, _ := paperEnv()
	if _, err := ssql.Compile(`select name from contacts where name contains "a"`, env); err != nil {
		t.Fatal(err)
	}
}

func TestOrAndNotInWhere(t *testing.T) {
	env, reg, _ := paperEnv()
	st := compile(t, `SELECT name FROM contacts
		WHERE (name = "Carla" OR name = "Nicolas") AND NOT (address contains "gouv")`, env)
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("rows = %d", res.Relation.Len())
	}
}

func TestSetFromAttribute(t *testing.T) {
	env, reg, _ := paperEnv()
	st := compile(t, `SELECT name, text FROM contacts SET text := address`, env)
	res, err := query.Evaluate(st, env, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sch := res.Relation.Schema()
	ti := sch.RealIndex("text")
	for _, tu := range res.Relation.Tuples() {
		if !strings.Contains(tu[ti].Str(), "@") {
			t.Fatalf("text not copied from address: %v", tu)
		}
	}
}
