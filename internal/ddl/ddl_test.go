package ddl_test

import (
	"fmt"
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/ddl"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/sal"
	"serena/internal/ssql"
	"serena/internal/value"
)

// table1 is the pseudo-DDL of the paper's Table 1, verbatim.
const table1 = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : (quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : (photo BLOB );
PROTOTYPE getTemperature( ) : (temperature REAL );
SERVICE email IMPLEMENTS sendMessage;
SERVICE jabber IMPLEMENTS sendMessage;
SERVICE camera01 IMPLEMENTS checkPhoto, takePhoto;
SERVICE camera02 IMPLEMENTS checkPhoto, takePhoto;
SERVICE webcam07 IMPLEMENTS checkPhoto, takePhoto;
SERVICE sensor01 IMPLEMENTS getTemperature;
SERVICE sensor06 IMPLEMENTS getTemperature;
SERVICE sensor07 IMPLEMENTS getTemperature;
SERVICE sensor22 IMPLEMENTS getTemperature;
`

// table2 is the pseudo-DDL of the paper's Table 2, verbatim.
const table2 = `
EXTENDED RELATION contacts (
  name STRING,
  address STRING,
  text STRING VIRTUAL,
  messenger SERVICE,
  sent BOOLEAN VIRTUAL
)
USING BINDING PATTERNS (
  sendMessage[messenger] ( address, text ) : ( sent )
);
EXTENDED RELATION cameras (
  camera SERVICE,
  area STRING,
  quality INTEGER VIRTUAL,
  delay REAL VIRTUAL,
  photo BLOB VIRTUAL
)
USING BINDING PATTERNS (
  checkPhoto[camera] ( area ) : ( quality, delay ),
  takePhoto[camera] ( area, quality ) : ( photo )
);
`

// parseOne parses exactly one statement.
func parseOne(src string) (ddl.Statement, error) {
	sts, err := ddl.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(sts) != 1 {
		return nil, fmt.Errorf("ddl: expected exactly one statement, got %d", len(sts))
	}
	return sts[0], nil
}

func TestTable1DDL(t *testing.T) {
	sts, err := ddl.Parse(table1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 13 {
		t.Fatalf("got %d statements, want 13", len(sts))
	}
	send, ok := sts[0].(*ddl.CreatePrototype)
	if !ok {
		t.Fatalf("statement 0 = %T", sts[0])
	}
	if send.Name != "sendMessage" || !send.Active {
		t.Fatalf("sendMessage = %+v", send)
	}
	if len(send.Inputs) != 2 || send.Inputs[0] != (ddl.Param{Name: "address", Type: value.String}) {
		t.Fatalf("sendMessage inputs = %+v", send.Inputs)
	}
	if len(send.Outputs) != 1 || send.Outputs[0] != (ddl.Param{Name: "sent", Type: value.Bool}) {
		t.Fatalf("sendMessage outputs = %+v", send.Outputs)
	}
	check := sts[1].(*ddl.CreatePrototype)
	if check.Active {
		t.Fatal("checkPhoto must be passive")
	}
	if len(check.Outputs) != 2 || check.Outputs[1].Type != value.Real {
		t.Fatalf("checkPhoto outputs = %+v", check.Outputs)
	}
	temp := sts[3].(*ddl.CreatePrototype)
	if len(temp.Inputs) != 0 {
		t.Fatalf("getTemperature inputs = %+v", temp.Inputs)
	}
	cam := sts[6].(*ddl.CreateService)
	if cam.Ref != "camera01" || len(cam.Prototypes) != 2 || cam.Prototypes[1] != "takePhoto" {
		t.Fatalf("camera01 = %+v", cam)
	}
}

func TestTable2DDL(t *testing.T) {
	sts, err := ddl.Parse(table2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("got %d statements, want 2", len(sts))
	}
	contacts := sts[0].(*ddl.CreateRelation)
	if contacts.Name != "contacts" || contacts.Stream {
		t.Fatalf("contacts = %+v", contacts)
	}
	if len(contacts.Attrs) != 5 {
		t.Fatalf("contacts attrs = %+v", contacts.Attrs)
	}
	if !contacts.Attrs[2].Virtual || contacts.Attrs[2].Name != "text" {
		t.Fatalf("text attr = %+v", contacts.Attrs[2])
	}
	if contacts.Attrs[3].Type != value.Service || contacts.Attrs[3].Virtual {
		t.Fatalf("messenger attr = %+v", contacts.Attrs[3])
	}
	if len(contacts.BPs) != 1 {
		t.Fatalf("contacts BPs = %+v", contacts.BPs)
	}
	bp := contacts.BPs[0]
	if bp.Proto != "sendMessage" || bp.ServiceAttr != "messenger" || !bp.Explicit {
		t.Fatalf("bp = %+v", bp)
	}
	if len(bp.Inputs) != 2 || bp.Inputs[1] != "text" || len(bp.Outputs) != 1 || bp.Outputs[0] != "sent" {
		t.Fatalf("bp params = %+v", bp)
	}
	cameras := sts[1].(*ddl.CreateRelation)
	if len(cameras.BPs) != 2 || cameras.BPs[1].Proto != "takePhoto" {
		t.Fatalf("cameras BPs = %+v", cameras.BPs)
	}
}

func TestStreamDDL(t *testing.T) {
	st, err := parseOne(`EXTENDED STREAM temperatures (
		sensor SERVICE, location STRING, temperature REAL );`)
	if err != nil {
		t.Fatal(err)
	}
	rel := st.(*ddl.CreateRelation)
	if !rel.Stream || rel.Name != "temperatures" || len(rel.Attrs) != 3 {
		t.Fatalf("stream = %+v", rel)
	}
	// Short form: STREAM also accepted.
	st2, err := parseOne(`STREAM t2 ( x INTEGER );`)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.(*ddl.CreateRelation).Stream {
		t.Fatal("STREAM shorthand broken")
	}
}

func TestBPWithoutExplicitParams(t *testing.T) {
	st, err := parseOne(`EXTENDED RELATION sensors (
		sensor SERVICE, location STRING, temperature REAL VIRTUAL )
		USING BINDING PATTERNS ( getTemperature[sensor] );`)
	if err != nil {
		t.Fatal(err)
	}
	rel := st.(*ddl.CreateRelation)
	if len(rel.BPs) != 1 || rel.BPs[0].Explicit {
		t.Fatalf("BPs = %+v", rel.BPs)
	}
}

func TestInsertDelete(t *testing.T) {
	st, err := parseOne(`INSERT INTO contacts VALUES
		("Nicolas", "nicolas@elysee.fr", email),
		("Carla", "carla@elysee.fr", email);`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*ddl.Insert)
	if ins.Relation != "contacts" || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[0][0].Str() != "Nicolas" {
		t.Fatalf("row 0 = %v", ins.Rows[0])
	}
	if ins.Rows[0][2].Kind() != value.Service || ins.Rows[0][2].ServiceRef() != "email" {
		t.Fatalf("bare identifier should parse as service ref: %v", ins.Rows[0][2])
	}
	st2, err := parseOne(`DELETE FROM contacts VALUES ("Carla", "carla@elysee.fr", email);`)
	if err != nil {
		t.Fatal(err)
	}
	del := st2.(*ddl.Delete)
	if del.Relation != "contacts" || len(del.Rows) != 1 {
		t.Fatalf("delete = %+v", del)
	}
}

func TestLiteralKinds(t *testing.T) {
	st, err := parseOne(`INSERT INTO r VALUES (42, -3.5, true, FALSE, null, *, "str");`)
	if err != nil {
		t.Fatal(err)
	}
	row := st.(*ddl.Insert).Rows[0]
	kinds := []value.Kind{value.Int, value.Real, value.Bool, value.Bool, value.Null, value.Null, value.String}
	for i, k := range kinds {
		if row[i].Kind() != k {
			t.Errorf("literal %d = %s, want %s", i, row[i].Kind(), k)
		}
	}
}

func TestDrop(t *testing.T) {
	st, err := parseOne(`DROP RELATION contacts;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*ddl.Drop).Name != "contacts" {
		t.Fatalf("drop = %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`PROTOTYPE ( x INTEGER ) : ( y INTEGER );`,  // missing name
		`PROTOTYPE p ( x INTEGER ) ( y INTEGER );`,  // missing ':'
		`PROTOTYPE p ( x WIBBLE ) : ( y INTEGER );`, // unknown type
		`PROTOTYPE p ( x INTEGER ) : ( y INTEGER )`, // missing ';'
		`SERVICE s;`,                      // missing IMPLEMENTS
		`EXTENDED TABLE t ( x INTEGER );`, // TABLE is not a keyword
		`EXTENDED RELATION t ( x INTEGER ) USING ( p[x] );`, // missing BINDING PATTERNS
		`INSERT contacts VALUES (1);`,                       // missing INTO
		`INSERT INTO contacts (1);`,                         // missing VALUES
		`DROP t;`,                                           // missing RELATION
		`FROBNICATE;`,                                       // unknown statement
		``,                                                  // caught by parseOne
	}
	for _, src := range bad {
		if _, err := parseOne(src); err == nil {
			t.Errorf("accepted invalid DDL: %s", src)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	_, err := ddl.Parse(`prototype p ( ) : ( y integer ) active;
		extended relation r ( a string virtual, s service )
		using binding patterns ( p[s] );`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommentsInDDL(t *testing.T) {
	_, err := ddl.Parse(`-- declare the messaging prototype
		PROTOTYPE p ( ) : ( y INTEGER ); /* inline */ SERVICE s IMPLEMENTS p;`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterQueryStatement(t *testing.T) {
	st, err := parseOne(`REGISTER QUERY alerts AS
		invoke[sendMessage](assign[text := "Hot!"](select[name != "Carla"](contacts)));`)
	if err != nil {
		t.Fatal(err)
	}
	rq := st.(*ddl.RegisterQuery)
	if rq.Name != "alerts" {
		t.Fatalf("name = %q", rq.Name)
	}
	// The source slice must contain the quoted literals verbatim.
	for _, frag := range []string{"invoke", "sendMessage", `"Hot!"`, `"Carla"`, ":="} {
		if !strings.Contains(rq.Source, frag) {
			t.Errorf("source missing %q: %s", frag, rq.Source)
		}
	}
	// SQL body.
	st2, err := parseOne(`REGISTER QUERY means AS
		SELECT location, mean(temperature) AS avg FROM temperatures[5] GROUP BY location;`)
	if err != nil {
		t.Fatal(err)
	}
	if src := st2.(*ddl.RegisterQuery).Source; !strings.HasPrefix(src, "SELECT ") {
		t.Fatalf("SQL source = %q", src)
	}
	// Unregister.
	st3, err := parseOne(`UNREGISTER QUERY alerts;`)
	if err != nil {
		t.Fatal(err)
	}
	if st3.(*ddl.UnregisterQuery).Name != "alerts" {
		t.Fatal("unregister name wrong")
	}
	// Errors.
	for _, src := range []string{
		`REGISTER QUERY x AS ;`,
		`REGISTER QUERY x AS select[true](r)`, // missing ';'
		`REGISTER x AS r;`,
		`UNREGISTER QUERY;`,
	} {
		if _, err := parseOne(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

// TestRegisterQueryKeepsLiteralBytes registers a query through DDL and
// checks that its body's source parses to the same plan as the body given
// to the SAL parser directly: a string literal holding a carriage return, a
// control byte, invalid UTF-8 or the lexer's own escapes keeps its bytes.
func TestRegisterQueryKeepsLiteralBytes(t *testing.T) {
	for _, lit := range []string{
		"\"a\rb\"",
		"\"a\x01b\"",
		"\"caf\xe9\"",
		`"q\"\\\n\t"`,
	} {
		body := "select[name = " + lit + "](contacts)"
		direct, err := sal.Parse(body)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		st, err := parseOne("REGISTER QUERY q AS " + body + ";")
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		viaDDL, err := sal.Parse(st.(*ddl.RegisterQuery).Source)
		if err != nil {
			t.Fatalf("%q: body source: %v", body, err)
		}
		if got, want := viaDDL.String(), direct.String(); got != want {
			t.Errorf("%q: plan through DDL %q, parsed directly %q", body, got, want)
		}
	}
}

// TestBodyErrorPointsIntoScript checks that an error inside a REGISTER
// QUERY body names the body's language and the script's own line and
// column: the body is read in place, not re-rendered.
func TestBodyErrorPointsIntoScript(t *testing.T) {
	script := `-- contacts and one bad query
PROTOTYPE p ( ) : ( y INTEGER );
EXTENDED RELATION r ( name STRING );
INSERT INTO r VALUES ("x");
REGISTER QUERY bad AS
  select[name = "x" and](contacts);
`
	_, err := ddl.Parse(script)
	if want := `sal: line 6:24: expected literal, got "]"`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

// selections lists the formulas of the selections stacked on a plan's
// base, innermost first, with a conjunction split into its terms — the
// placement Serena SQL gives its WHERE conjuncts.
func selections(n query.Node) []string {
	s, ok := n.(*query.Select)
	if !ok {
		return nil
	}
	out := selections(s.Child)
	if and, ok := s.Formula.(*algebra.And); ok {
		for _, term := range and.Terms {
			out = append(out, term.String())
		}
		return out
	}
	return append(out, s.Formula.String())
}

// TestOneGrammarThreeWays reads each formula as SAL, as Serena SQL and
// inside REGISTER QUERY in both languages, and requires the same formula
// every time; the shared constructs below the formula behave alike too.
func TestOneGrammarThreeWays(t *testing.T) {
	env := query.MapEnv{"contacts": paperenv.Contacts()}
	for _, f := range []string{
		`true`,
		`not (name = "Carla")`,
		`address contains "gouv"`,
		`(name = "Carla" or name = "Nicolas") and messenger != null`,
	} {
		salText := "select[" + f + "](contacts)"
		sqlText := "SELECT * FROM contacts WHERE " + f
		n, err := sal.Parse(salText)
		if err != nil {
			t.Fatalf("%s: %v", salText, err)
		}
		want := selections(n)
		root, err := ssql.Compile(sqlText, env)
		if err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
		plans := map[string]query.Node{sqlText: root}
		for _, body := range []string{salText, sqlText} {
			st, err := parseOne("REGISTER QUERY q AS " + body + ";")
			if err != nil {
				t.Fatalf("REGISTER QUERY q AS %s: %v", body, err)
			}
			if plans["REGISTER QUERY q AS "+body], err = st.(*ddl.RegisterQuery).Plan(env); err != nil {
				t.Fatalf("REGISTER QUERY q AS %s: %v", body, err)
			}
		}
		for text, plan := range plans {
			if got := selections(plan); strings.Join(got, " | ") != strings.Join(want, " | ") {
				t.Errorf("%s selects %q, SAL selects %q", text, got, want)
			}
		}
	}
	if _, err := sal.Parse(`stream[INSERTION](contacts)`); err != nil {
		t.Errorf("stream[INSERTION]: %v", err)
	}
	if _, err := ssql.Compile(`SELECT * FROM contacts STREAMING INSERTION`, env); err != nil {
		t.Errorf("STREAMING INSERTION: %v", err)
	}
	// A bad window period draws one message, whatever the language.
	for _, period := range []string{"0", "x", "1.5"} {
		_, salErr := sal.Parse("window[" + period + "](contacts)")
		_, sqlErr := ssql.Compile("SELECT * FROM contacts["+period+"]", env)
		if salErr == nil || sqlErr == nil {
			t.Fatalf("period %s accepted: SAL %v, SQL %v", period, salErr, sqlErr)
		}
		message := func(err error) string { return strings.SplitN(err.Error(), ": ", 3)[2] }
		want := fmt.Sprintf("window period must be a positive integer, got %q", period)
		if message(salErr) != want || message(sqlErr) != want {
			t.Errorf("period %s: SAL %q, SQL %q, want %q", period, salErr, sqlErr, want)
		}
	}
}

func TestRegisterQueryOnError(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string
	}{
		{`REGISTER QUERY q AS select[true](r);`, ""},
		{`REGISTER QUERY q ON ERROR FAIL AS select[true](r);`, "FAIL"},
		{`REGISTER QUERY q ON ERROR skip AS select[true](r);`, "SKIP"},
		{`REGISTER QUERY q ON ERROR NULL AS select[true](r);`, "NULL"},
	} {
		st, err := parseOne(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		rq := st.(*ddl.RegisterQuery)
		if rq.OnError != tc.want {
			t.Errorf("%s: OnError = %q, want %q", tc.src, rq.OnError, tc.want)
		}
		if !strings.Contains(rq.Source, "select") {
			t.Errorf("%s: body lost: %q", tc.src, rq.Source)
		}
	}
	for _, src := range []string{
		`REGISTER QUERY q ON ERROR AS select[true](r);`,
		`REGISTER QUERY q ON ERROR RETRY AS select[true](r);`,
		`REGISTER QUERY q ON FAIL AS select[true](r);`,
	} {
		if _, err := parseOne(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestRegisterQueryInto(t *testing.T) {
	for _, tc := range []struct {
		src    string
		into   string
		retain int
		onErr  string
	}{
		{`REGISTER QUERY q AS select[true](r);`, "", 0, ""},
		{`REGISTER QUERY q INTO hot AS select[true](r);`, "hot", 0, ""},
		{`REGISTER QUERY q INTO hot RETAIN 32 INSTANTS AS select[true](r);`, "hot", 32, ""},
		{`REGISTER QUERY q ON ERROR SKIP INTO hot RETAIN 1 INSTANTS AS select[true](r);`, "hot", 1, "SKIP"},
		{`REGISTER QUERY q into Hot retain 7 instants AS select[true](r);`, "Hot", 7, ""},
	} {
		st, err := parseOne(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		rq := st.(*ddl.RegisterQuery)
		if rq.Into != tc.into || rq.Retain != tc.retain || rq.OnError != tc.onErr {
			t.Errorf("%s: Into=%q Retain=%d OnError=%q, want %q/%d/%q",
				tc.src, rq.Into, rq.Retain, rq.OnError, tc.into, tc.retain, tc.onErr)
		}
		if !strings.Contains(rq.Source, "select") {
			t.Errorf("%s: body lost: %q", tc.src, rq.Source)
		}
	}
	for _, src := range []string{
		`REGISTER QUERY q INTO AS select[true](r);`,                       // missing target name
		`REGISTER QUERY q INTO sys$mat AS select[true](r);`,               // reserved prefix
		`REGISTER QUERY q INTO hot RETAIN 0 INSTANTS AS select[true](r);`, // zero retention
		`REGISTER QUERY q INTO hot RETAIN -3 INSTANTS AS select[true](r);`,
		`REGISTER QUERY q INTO hot RETAIN many INSTANTS AS select[true](r);`,
		`REGISTER QUERY q INTO hot RETAIN 5 AS select[true](r);`, // missing INSTANTS
		`REGISTER QUERY q RETAIN 5 INSTANTS AS select[true](r);`, // RETAIN without INTO
	} {
		if _, err := parseOne(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestOnOverloadClause(t *testing.T) {
	// Bare form, no binding patterns.
	st, err := parseOne(`EXTENDED STREAM readings (
		sensor SERVICE, v REAL ) ON OVERLOAD SHED_OLDEST CAPACITY 64;`)
	if err != nil {
		t.Fatal(err)
	}
	rel := st.(*ddl.CreateRelation)
	if rel.OnOverload != "SHED_OLDEST" || rel.Capacity != 64 {
		t.Fatalf("overload = %q capacity = %d", rel.OnOverload, rel.Capacity)
	}
	// After a binding-pattern list, capacity omitted.
	st, err = parseOne(`EXTENDED RELATION sensors (
		sensor SERVICE, temperature REAL VIRTUAL )
		USING BINDING PATTERNS ( getTemperature[sensor] )
		ON OVERLOAD block;`)
	if err != nil {
		t.Fatal(err)
	}
	rel = st.(*ddl.CreateRelation)
	if rel.OnOverload != "BLOCK" || rel.Capacity != 0 || len(rel.BPs) != 1 {
		t.Fatalf("rel = %+v", rel)
	}
	// Unknown policy and bad capacity are rejected.
	if _, err := parseOne(`STREAM s ( x INTEGER ) ON OVERLOAD whatever;`); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := parseOne(`STREAM s ( x INTEGER ) ON OVERLOAD BLOCK CAPACITY 0;`); err == nil {
		t.Fatal("zero capacity accepted")
	}
	// Statements without the clause still parse.
	if _, err := parseOne(`STREAM s ( x INTEGER );`); err != nil {
		t.Fatal(err)
	}
}
