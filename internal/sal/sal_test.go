package sal_test

import (
	"testing"

	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/sal"
	"serena/internal/service"
)

// paperQueries are the Table 4 queries in SAL syntax (Q1, Q1', Q2, Q2',
// Q3, Q4).
var paperQueries = map[string]string{
	"Q1":  `invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)))`,
	"Q1'": `select[name != "Carla"](invoke[sendMessage](assign[text := "Bonjour!"](contacts)))`,
	"Q2":  `project[photo](invoke[takePhoto](select[quality >= 5](invoke[checkPhoto](select[area = "office"](cameras)))))`,
	"Q2'": `project[photo](invoke[takePhoto](select[(quality >= 5) and (area = "office")](invoke[checkPhoto](cameras))))`,
	"Q3":  `invoke[sendMessage](assign[text := "Hot!"](join(contacts, select[temperature > 35.5](window[1](temperatures)))))`,
	"Q4":  `stream[insertion](project[photo](invoke[takePhoto](invoke[checkPhoto](join(cameras, rename[location -> area](select[temperature < 12.0](window[1](temperatures))))))))`,
}

func TestTable4QueriesParse(t *testing.T) {
	for name, src := range paperQueries {
		n, err := sal.Parse(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if n == nil {
			t.Errorf("%s: nil node", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// Parse → String → Parse must be stable.
	for name, src := range paperQueries {
		n1, err := sal.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		printed := n1.String()
		n2, err := sal.Parse(printed)
		if err != nil {
			t.Fatalf("%s: re-parse of %q: %v", name, printed, err)
		}
		if n2.String() != printed {
			t.Errorf("%s: round-trip unstable:\n1: %s\n2: %s", name, printed, n2.String())
		}
	}
}

func TestParsedQ1Evaluates(t *testing.T) {
	reg, dev := paperenv.MustRegistry()
	env := query.MapEnv{"contacts": paperenv.Contacts()}
	n, err := sal.Parse(paperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Evaluate(n, env, reg, service.Instant(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 || res.Actions.Len() != 2 {
		t.Fatalf("Q1 via SAL: %d tuples, actions %s", res.Relation.Len(), res.Actions)
	}
	if len(dev.Messengers["email"].Outbox()) != 1 {
		t.Fatal("email outbox wrong")
	}
}

func TestBaseAndSetOps(t *testing.T) {
	n, err := sal.Parse(`union(diff(contacts, contacts), intersect(contacts, contacts))`)
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "union(diff(contacts, contacts), intersect(contacts, contacts))" {
		t.Fatalf("String = %q", n.String())
	}
	b, err := sal.Parse("contacts")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*query.Base); !ok {
		t.Fatalf("bare name = %T", b)
	}
}

func TestAssignVariants(t *testing.T) {
	n, err := sal.Parse(`assign[text := address](contacts)`)
	if err != nil {
		t.Fatal(err)
	}
	a := n.(*query.Assign)
	if a.Src != "address" {
		t.Fatalf("assign-attr = %+v", a)
	}
	n2, err := sal.Parse(`assign[quality := 5](cameras)`)
	if err != nil {
		t.Fatal(err)
	}
	a2 := n2.(*query.Assign)
	if a2.Src != "" || a2.Const.Int() != 5 {
		t.Fatalf("assign-const = %+v", a2)
	}
	n3, err := sal.Parse(`assign[sent := true](contacts)`)
	if err != nil {
		t.Fatal(err)
	}
	if !n3.(*query.Assign).Const.Bool() {
		t.Fatal("assign bool literal broken")
	}
}

func TestInvokeQualified(t *testing.T) {
	n, err := sal.Parse(`invoke[getTemperature@sensor](sensors)`)
	if err != nil {
		t.Fatal(err)
	}
	inv := n.(*query.Invoke)
	if inv.Proto != "getTemperature" || inv.ServiceAttr != "sensor" {
		t.Fatalf("invoke = %+v", inv)
	}
}

func TestFormulaPrecedence(t *testing.T) {
	// and binds tighter than or.
	n, err := sal.Parse(`select[a = 1 or b = 2 and c = 3](r)`)
	if err != nil {
		t.Fatal(err)
	}
	got := n.String()
	want := `select[(a = 1) or ((b = 2) and (c = 3))](r)`
	if got != want {
		t.Fatalf("precedence: %q want %q", got, want)
	}
	// not and parens.
	n2, err := sal.Parse(`select[not (a = 1) and (b = 2 or true)](r)`)
	if err != nil {
		t.Fatal(err)
	}
	want2 := `select[(not (a = 1)) and ((b = 2) or (true))](r)`
	if n2.String() != want2 {
		t.Fatalf("got %q want %q", n2.String(), want2)
	}
}

func TestFormulaOperators(t *testing.T) {
	for _, src := range []string{
		`select[a = 1](r)`, `select[a == 1](r)`, `select[a != 1](r)`,
		`select[a <> 1](r)`, `select[a < 1](r)`, `select[a <= 1](r)`,
		`select[a > 1](r)`, `select[a >= 1](r)`,
		`select[title contains "Obama"](r)`,
		`select[a = b](r)`, `select[true](r)`,
		`select[a = null](r)`, `select[a = -5](r)`, `select[a = 2.5](r)`,
	} {
		if _, err := sal.Parse(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestWindowAndStream(t *testing.T) {
	n, err := sal.Parse(`window[3600](temperatures)`)
	if err != nil {
		t.Fatal(err)
	}
	if n.(*query.Window).Period != 3600 {
		t.Fatalf("period = %d", n.(*query.Window).Period)
	}
	for _, kind := range []string{"insertion", "deletion", "heartbeat"} {
		if _, err := sal.Parse(`stream[` + kind + `](r)`); err != nil {
			t.Errorf("stream[%s]: %v", kind, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`project[](r)`,
		`project[a(r)`,
		`select[a =](r)`,
		`select[](r)`,
		`rename[a b](r)`,
		`assign[x = 1](r)`, // needs :=
		`invoke[](r)`,
		`window[0](r)`,
		`window[-1](r)`,
		`window[1.5](r)`,
		`window[x](r)`,
		`stream[bogus](r)`,
		`join(a)`,
		`join(a, b`,
		`union(a, b) trailing`,
		`union(a, b); trailing`,
		`unknownop[x](r)`,
	}
	for _, src := range bad {
		if _, err := sal.Parse(src); err == nil {
			t.Errorf("accepted invalid SAL: %s", src)
		}
	}
}

func TestSemicolonTolerated(t *testing.T) {
	if _, err := sal.Parse(`contacts;`); err != nil {
		t.Fatal(err)
	}
}
