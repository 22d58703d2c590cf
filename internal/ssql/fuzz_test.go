package ssql_test

import (
	"testing"

	"serena/internal/ssql"
)

// FuzzCompile asserts the Serena SQL compiler never panics; accepted
// statements must plan against the paper environment.
func FuzzCompile(f *testing.F) {
	seeds := []string{
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
	env, _, _ := paperEnv()
	f.Fuzz(func(t *testing.T, src string) {
		root, err := ssql.Compile(src, env)
		if err != nil {
			return
		}
		if root == nil {
			t.Fatalf("accepted %q with empty plan", src)
		}
	})
}
