package ddl_test

import (
	"testing"

	"serena/internal/ddl"
	"serena/internal/lexer"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/sal"
	"serena/internal/ssql"
)

// FuzzParse is the front end's fuzz target. Every input is read three
// ways: as a DDL script, which must never panic; as SAL, whose accepted
// texts must print to a fixed point of String → sal.Parse; and as Serena
// SQL, whose accepted texts must plan against the paper environment. An
// accepted SAL or SQL text must give the identical plan as a REGISTER
// QUERY body and through ddl.ParseQuery.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// DDL scripts.
		`PROTOTYPE p( a STRING ) : ( b BOOLEAN ) ACTIVE;`,
		`SERVICE s IMPLEMENTS p, q;`,
		`EXTENDED RELATION r ( a STRING, b REAL VIRTUAL, s SERVICE )
		 USING BINDING PATTERNS ( p[s] ( a ) : ( b ) );`,
		`EXTENDED STREAM t ( x INTEGER );`,
		`INSERT INTO r VALUES ("x", 1.5, svc), (null, *, "q");`,
		`DELETE FROM r VALUES (1);`,
		`DROP RELATION r;`,
		`REGISTER QUERY q AS select[a = 1](r);`,
		`REGISTER QUERY q ON ERROR SKIP AS invoke[p](r);`,
		`REGISTER QUERY q ON ERROR NULL
		 AS SELECT location, mean(temperature) AS avg FROM temperatures[5] GROUP BY location;`,
		`REGISTER QUERY q ON ERROR FAIL AS select[temperature > 28.0](invoke[getTemperature](sensors));`,
		`REGISTER QUERY q ON ERROR AS x;`,
		`REGISTER QUERY q ON ERROR BOGUS AS x;`,
		`REGISTER QUERY q AS ;`,
		`UNREGISTER QUERY q;`,
		`EXPLAIN select[a = 1](r);`,
		`EXPLAIN ANALYZE invoke[p](r);`,
		`EXPLAIN ANALYZE SELECT * FROM contacts;`,
		`EXPLAIN ;`,
		`EXPLAIN ANALYZE ;`,
		`EXPLAIN`,
		`-- comment only`,
		`PROTOTYPE`,
		`INSERT INTO`,
		"EXTENDED RELATION r ( \xff );",
		`INSERT INTO r VALUES (0xdeadbeef);`,
		// SAL texts.
		`contacts`,
		`project[name, address](contacts)`,
		`select[name != "Carla"](contacts)`,
		`select[a = 1 or b = 2 and not (c >= 3.5)](r)`,
		`rename[location -> area](t)`,
		`assign[text := "Bonjour!"](contacts)`,
		`assign[text := address](contacts)`,
		`invoke[sendMessage@messenger](contacts)`,
		`window[3600](news)`,
		`stream[insertion](q)`,
		`aggregate[mean(temperature) as avg by location](t)`,
		`join(union(a, b), diff(c, intersect(d, e)))`,
		`select[title contains "Obama"](window[1](news))`,
		`select[`,
		`project[](r)`,
		`π[x](r)`,
		`invoke[p](q))`,
		"select[a = \x00](r)",
		// Serena SQL texts.
		`SELECT * FROM contacts`,
		`SELECT name, address FROM contacts WHERE name != "Carla"`,
		`SELECT photo FROM cameras USING checkPhoto, takePhoto WHERE quality >= 5`,
		`SELECT location, mean(temperature) AS avg FROM sensors USING getTemperature GROUP BY location`,
		`SELECT * FROM contacts NATURAL JOIN surveillance SET text := "x" USING sendMessage`,
		`SELECT count(*) FROM contacts STREAMING insertion`,
		`SELECT * FROM t[5]`,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT a FROM r WHERE`,
		`SELECT sum( FROM r`,
		"SELECT \x00 FROM r",
		`EXPLAIN SELECT * FROM contacts`,
		`EXPLAIN ANALYZE SELECT photo FROM cameras USING checkPhoto, takePhoto WHERE quality >= 5`,
		`EXPLAIN ANALYZE`,
		`EXPLAIN EXPLAIN ANALYZE SELECT * FROM contacts`,
		`ANALYZE SELECT * FROM contacts`,
		`explain analyze select name from contacts where name <> "Carla"`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	env := query.MapEnv{
		"contacts":     paperenv.Contacts(),
		"cameras":      paperenv.Cameras(),
		"sensors":      paperenv.Sensors(),
		"surveillance": paperenv.Surveillance(),
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ddl.Parse(src) // must not panic
		if n, err := sal.Parse(src); err == nil {
			printed := n.String()
			n2, err := sal.Parse(printed)
			if err != nil {
				t.Fatalf("accepted %q but rejected its rendering %q: %v", src, printed, err)
			}
			if n2.String() != printed {
				t.Fatalf("unstable round trip: %q → %q → %q", src, printed, n2.String())
			}
			samePlan(t, src, printed, env)
		}
		if root, err := ssql.Compile(src, env); err == nil {
			if root == nil {
				t.Fatalf("accepted %q with empty plan", src)
			}
			samePlan(t, src, root.String(), env)
		}
	})
}

// samePlan checks that the accepted query text src plans to want as a
// REGISTER QUERY body and through ddl.ParseQuery.
func samePlan(t *testing.T, src, want string, env query.Environment) {
	t.Helper()
	stmts, err := ddl.Parse(registerScript(src))
	if err != nil || len(stmts) != 1 {
		t.Fatalf("%q as a REGISTER QUERY body: %d statement(s), %v", src, len(stmts), err)
	}
	st, err := ddl.ParseQuery(src)
	if err != nil {
		t.Fatalf("%q through ParseQuery: %v", src, err)
	}
	for _, q := range []*ddl.Query{&stmts[0].(*ddl.RegisterQuery).Query, st.(*ddl.Query)} {
		n, err := q.Plan(env)
		if err != nil {
			t.Fatalf("%q read in place: %v", src, err)
		}
		if n.String() != want {
			t.Fatalf("%q read in place plans to %q, on its own to %q", src, n.String(), want)
		}
	}
}

// registerScript registers src as query q. A text accepted on its own may
// already end in the ';' the statement needs, and may end in a line comment.
func registerScript(src string) string {
	var last lexer.Token
	for lx := lexer.New(src); ; {
		tok, err := lx.Next()
		if err != nil || tok.Kind == lexer.EOF {
			break
		}
		last = tok
	}
	if last.Is(";") {
		return "REGISTER QUERY q AS " + src
	}
	return "REGISTER QUERY q AS " + src + "\n;"
}
