package pems_test

import (
	"strings"
	"testing"
	"time"

	"serena/internal/ddl"
	"serena/internal/device"
)

func TestOneShotSQL(t *testing.T) {
	p, _, messengers, _ := newScenarioPEMS(t)
	res, err := p.OneShotSQL(`SELECT * FROM contacts SET text := "Bonjour!" USING sendMessage WHERE name != "Carla"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 || res.Actions.Len() != 2 {
		t.Fatalf("SQL Q1: %d rows, %s", res.Relation.Len(), res.Actions)
	}
	if len(messengers["email"].Outbox()) != 1 {
		t.Fatal("side effect missing")
	}
	// Aggregation through SQL.
	res2, err := p.OneShotSQL(`SELECT location, mean(temperature) AS avgtemp
		FROM sensors USING getTemperature GROUP BY location`)
	if err == nil {
		t.Fatalf("sensors is not declared in the DDL scenario (only the stream is); got %d rows", res2.Relation.Len())
	}
	// Errors are surfaced.
	if _, err := p.OneShotSQL(`SELECT ghost FROM contacts`); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestRegisterQuerySQLContinuous(t *testing.T) {
	p, sensors, messengers, _ := newScenarioPEMS(t)
	q, err := p.RegisterQuery("alerts",
		`SELECT * FROM contacts NATURAL JOIN surveillance NATURAL JOIN temperatures[1]
		 SET text := "Alert!"
		 USING sendMessage
		 WHERE temperature > 28.0`, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Plan().String(), "invoke[sendMessage]") {
		t.Fatalf("plan = %s", q.Plan())
	}
	sensors["sensor06"].Heat(device.HeatEvent{From: 3, To: 6, Delta: 10})
	if err := p.Executor().RunUntil(8); err != nil {
		t.Fatal(err)
	}
	emails := messengers["email"].Outbox()
	if len(emails) != 1 || emails[0].Address != "carla@elysee.fr" || emails[0].Text != "Alert!" {
		t.Fatalf("outbox = %v", emails)
	}
}

func TestExplain(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	// SAL form.
	ex, err := p.Explain(`select[area = "office"](invoke[checkPhoto](cameras))`)
	if err != nil {
		t.Fatal(err)
	}
	if ex.CostAfter >= ex.CostBefore || len(ex.Steps) == 0 {
		t.Fatalf("explanation = %+v", ex)
	}
	if !strings.Contains(ex.Optimized, `invoke[checkPhoto](select[area = "office"]`) {
		t.Fatalf("optimized = %s", ex.Optimized)
	}
	// SQL form.
	ex2, err := p.Explain(`SELECT name FROM contacts WHERE name != "Carla"`)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Original == "" || ex2.Optimized == "" {
		t.Fatalf("explanation = %+v", ex2)
	}
	// Errors surface.
	if _, err := p.Explain(`select[`); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := p.Explain(`SELECT ghost FROM contacts`); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

// TestExplainPrefixNeverEvaluates hands an EXPLAIN [ANALYZE]-prefixed text,
// SAL and Serena SQL alike, to every entry point that evaluates or
// registers a query: each refuses it, and no message is delivered.
func TestExplainPrefixNeverEvaluates(t *testing.T) {
	p, _, messengers, _ := newScenarioPEMS(t)
	entries := map[string]func(string) error{
		"OneShot":      func(src string) error { _, err := p.OneShot(src); return err },
		"OneShotSQL":   func(src string) error { _, err := p.OneShotSQL(src); return err },
		"TraceOneShot": func(src string) error { _, err := p.TraceOneShot(src); return err },
		"RegisterQuery": func(src string) error {
			_, err := p.RegisterQuery("explained", src, true)
			return err
		},
	}
	for _, src := range []string{
		`EXPLAIN SELECT * FROM contacts SET text := "Bonjour!" USING sendMessage WHERE name != "Carla"`,
		`EXPLAIN ANALYZE SELECT * FROM contacts SET text := "Bonjour!" USING sendMessage WHERE name != "Carla"`,
		`EXPLAIN invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)))`,
		`explain analyze invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)));`,
	} {
		for name, run := range entries {
			if err := run(src); err == nil || !strings.Contains(err.Error(), "EXPLAIN") {
				t.Errorf("%s(%q): err = %v, want the EXPLAIN prefix refused", name, src, err)
			}
		}
	}
	if err := p.Executor().RunUntil(2); err != nil {
		t.Fatal(err)
	}
	for ref, m := range messengers {
		if out := m.Outbox(); len(out) != 0 {
			t.Errorf("%s delivered %v", ref, out)
		}
	}
}

func TestExplainAnalyze(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	rep, err := p.ExplainAnalyze(`EXPLAIN ANALYZE select[area = "office"](invoke[checkPhoto](cameras))`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(rep.Plan, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "select[") || !strings.Contains(lines[2], "    cameras") {
		t.Fatalf("plan =\n%s", rep.Plan)
	}
	for _, l := range lines {
		if !strings.Contains(l, "calls=1 ") || !strings.Contains(l, " time=") || strings.Contains(l, "error=") {
			t.Fatalf("plan line %q", l)
		}
	}
	if rep.Result == nil || rep.Result.Stats.Passive == 0 {
		t.Fatalf("result = %+v, want the evaluated relation and its passive invocations", rep.Result)
	}
	// A failing evaluation still reports the partial plan: contacts
	// evaluated, β did not (its text input is still virtual).
	rep, err = p.ExplainAnalyze(`invoke[sendMessage](contacts)`)
	if err == nil {
		t.Fatal("β over an unrealized input evaluated")
	}
	lines = strings.Split(strings.TrimRight(rep.Plan, "\n"), "\n")
	if rep.Result != nil || len(lines) != 2 ||
		!strings.Contains(lines[0], "error=") || !strings.Contains(lines[1], "calls=1 ") || strings.Contains(lines[1], "error=") {
		t.Fatalf("failed run: result %v, plan =\n%s", rep.Result, rep.Plan)
	}
}

func TestDerivedViewThroughSQL(t *testing.T) {
	p, sensors, messengers, _ := newScenarioPEMS(t)
	// Continuous view: per-location mean over a 3-instant window.
	if _, err := p.RegisterQuery("means",
		`SELECT location, mean(temperature) AS avgtemp FROM temperatures[3] GROUP BY location`, false); err != nil {
		t.Fatal(err)
	}
	// Alerting query over the derived view.
	if _, err := p.RegisterQuery("meanAlerts",
		`SELECT * FROM contacts NATURAL JOIN surveillance NATURAL JOIN means
		 SET text := "Mean alert!"
		 USING sendMessage
		 WHERE avgtemp > 27.0`, false); err != nil {
		t.Fatal(err)
	}
	sensors["sensor06"].Heat(device.HeatEvent{From: 2, To: 12, Delta: 14}) // office 21 → 35
	if err := p.Executor().RunUntil(8); err != nil {
		t.Fatal(err)
	}
	emails := messengers["email"].Outbox()
	if len(emails) != 1 || emails[0].Address != "carla@elysee.fr" {
		t.Fatalf("outbox = %v (office manager alerted once)", emails)
	}
}

func TestRegisterQueryViaDDL(t *testing.T) {
	p, sensors, messengers, _ := newScenarioPEMS(t)
	// One script declares both a SQL view and an algebra alert query.
	err := p.ExecuteDDL(`
		REGISTER QUERY means AS
		  SELECT location, mean(temperature) AS avgtemp
		  FROM temperatures[3] GROUP BY location;
		REGISTER QUERY ddlAlerts AS
		  invoke[sendMessage](assign[text := "Hot!"](join(contacts,
		    select[temperature > 28.0](window[1](temperatures)))));`)
	if err != nil {
		t.Fatal(err)
	}
	sensors["sensor06"].Heat(device.HeatEvent{From: 2, To: 5, Delta: 10})
	if err := p.Executor().RunUntil(6); err != nil {
		t.Fatal(err)
	}
	// The algebra query alerted all three contacts once.
	total := len(messengers["email"].Outbox()) + len(messengers["jabber"].Outbox())
	if total != 3 {
		t.Fatalf("deliveries = %d, want 3", total)
	}
	// The SQL view exists as a derived relation.
	if _, ok := p.Executor().Relation("means"); !ok {
		t.Fatal("means view missing")
	}
	// UNREGISTER via DDL.
	if err := p.ExecuteDDL(`UNREGISTER QUERY means;`); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Executor().Relation("means"); ok {
		t.Fatal("means view should be gone")
	}
	// Catalog alone refuses query statements.
	stmts, err := ddl.Parse(`REGISTER QUERY q AS contacts;`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Catalog().Execute(stmts[0], 0); err == nil {
		t.Fatal("catalog accepted a query statement")
	}
	// Bad query bodies surface with statement numbers.
	if err := p.ExecuteDDL(`REGISTER QUERY bad AS select[ghost = 1](contacts);`); err == nil {
		t.Fatal("invalid query body accepted")
	}
}

func TestRealTimeTicker(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	if err := p.StartTicker(0, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := p.StartTicker(2*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.StartTicker(2*time.Millisecond, nil); err == nil {
		t.Fatal("double start accepted")
	}
	deadline := time.Now().Add(3 * time.Second)
	for p.Executor().Now() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p.Executor().Now() < 3 {
		t.Fatalf("clock did not advance: %d", p.Executor().Now())
	}
	p.StopTicker()
	p.StopTicker() // idempotent
	at := p.Executor().Now()
	time.Sleep(20 * time.Millisecond)
	if p.Executor().Now() != at {
		t.Fatal("clock advanced after StopTicker")
	}
	// Close is safe with a running ticker too.
	if err := p.StartTicker(2*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
}
