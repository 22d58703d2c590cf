package cq_test

import (
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/obs"
	"serena/internal/query"
	"serena/internal/value"
)

// hotPlan is the recurring test shape: hot readings over a short window.
func hotPlan(period int64) query.Node {
	return query.NewSelect(
		query.NewWindow(query.NewBase("temperatures"), period),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(20))))
}

func TestSetNaiveEvaluationUnknownQuery(t *testing.T) {
	s := newScenario(t)
	if err := s.exec.SetNaiveEvaluation("nope", true); err == nil {
		t.Fatal("SetNaiveEvaluation on an unregistered query did not error")
	}
}

// TestRegisterRejectsUncompilablePlan: registration no longer shrugs off a
// delta-compile failure and runs the plan naive. The one shape that derives
// a schema yet has no delta operator — a constant of the wrong type — never
// evaluated naive either (every tick failed), so it is refused outright.
func TestRegisterRejectsUncompilablePlan(t *testing.T) {
	s := newScenario(t)
	plan := query.NewAssignConst(query.NewBase("contacts"), "text", value.NewInt(7))
	if _, err := s.exec.Register("illTyped", plan); err == nil || !strings.Contains(err.Error(), "constant type") {
		t.Fatalf("Register(%s) = %v, want the assignment's type error", plan, err)
	}
	if _, ok := s.exec.Query("illTyped"); ok {
		t.Fatal("rejected query is registered")
	}
	if _, ok := s.exec.Relation("illTyped"); ok {
		t.Fatal("rejected query left an output relation behind")
	}
	if _, err := s.exec.Tick(); err != nil {
		t.Fatalf("tick after a rejected registration: %v", err)
	}
}

// TestEvaluationModeFlips pins the control surface: a compiled query runs
// delta by default, SetNaiveEvaluation moves it between evaluators mid-run,
// and EvalCounts attributes each tick to the path that actually ran it.
func TestEvaluationModeFlips(t *testing.T) {
	s := newScenario(t)
	q, err := s.exec.Register("hot", hotPlan(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.EvaluationMode(); got != "delta" {
		t.Fatalf("fresh query mode = %q, want delta", got)
	}
	tick := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.exec.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick(3)
	if d, n := q.EvalCounts(); d != 3 || n != 0 {
		t.Fatalf("after 3 delta ticks EvalCounts = (%d, %d), want (3, 0)", d, n)
	}

	if err := s.exec.SetNaiveEvaluation("hot", true); err != nil {
		t.Fatal(err)
	}
	if got := q.EvaluationMode(); got != "naive" {
		t.Fatalf("pinned query mode = %q, want naive", got)
	}
	tick(2)
	if d, n := q.EvalCounts(); d != 3 || n != 2 {
		t.Fatalf("after naive pin EvalCounts = (%d, %d), want (3, 2)", d, n)
	}

	// Flipping back must not trust stale operator state: the next delta
	// tick is a re-init (the naive ticks advanced the world underneath).
	reinits := obs.Default.Counter("cq.delta.reinits").Value()
	if err := s.exec.SetNaiveEvaluation("hot", false); err != nil {
		t.Fatal(err)
	}
	tick(1)
	if d, n := q.EvalCounts(); d != 4 || n != 2 {
		t.Fatalf("after unpin EvalCounts = (%d, %d), want (4, 2)", d, n)
	}
	if got := obs.Default.Counter("cq.delta.reinits").Value() - reinits; got != 1 {
		t.Fatalf("unpinning recorded %d re-inits, want 1", got)
	}
}

// TestDeltaMetricsSplit verifies the renamed observability families stay
// disjoint: cq.invoke_cache.* counts Section 4.2 memo traffic on either
// evaluator, while cq.delta.* moves only with the incremental path
// (fallback_ticks counting the instants a delta-capable query ran naive).
func TestDeltaMetricsSplit(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("photos",
		query.NewInvoke(query.NewBase("cameras"), "checkPhoto", "camera")); err != nil {
		t.Fatal(err)
	}
	read := func() (ticks, fallback, hits, misses int64) {
		return obs.Default.Counter("cq.delta.ticks").Value(),
			obs.Default.Counter("cq.delta.fallback_ticks").Value(),
			obs.Default.Counter("cq.invoke_cache.hits").Value(),
			obs.Default.Counter("cq.invoke_cache.misses").Value()
	}

	// Instant 0, delta path: re-init invokes all three cameras (misses).
	ticks0, fb0, hits0, miss0 := read()
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	ticks1, fb1, hits1, miss1 := read()
	if ticks1-ticks0 != 1 || fb1 != fb0 {
		t.Fatalf("delta tick moved (ticks, fallback) by (%d, %d), want (1, 0)", ticks1-ticks0, fb1-fb0)
	}
	if miss1-miss0 != 3 || hits1 != hits0 {
		t.Fatalf("re-init moved (hits, misses) by (%d, %d), want (0, 3)", hits1-hits0, miss1-miss0)
	}

	// Instant 1, steady delta tick: cameras are unchanged, so persisting
	// tuples never consult the cache at all.
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	ticks2, _, hits2, miss2 := read()
	if ticks2-ticks1 != 1 {
		t.Fatalf("steady tick moved cq.delta.ticks by %d, want 1", ticks2-ticks1)
	}
	if hits2 != hits1 || miss2 != miss1 {
		t.Fatalf("steady delta tick moved cache counters by (%d, %d), want (0, 0)", hits2-hits1, miss2-miss1)
	}

	// Pinned naive: the re-evaluate-then-diff path re-consults the memo for
	// every camera (three hits), and the instant counts as a fallback tick.
	if err := s.exec.SetNaiveEvaluation("photos", true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	ticks3, fb3, hits3, miss3 := read()
	if ticks3 != ticks2 || fb3-fb1 != 1 {
		t.Fatalf("naive tick moved (ticks, fallback) by (%d, %d), want (0, 1)", ticks3-ticks2, fb3-fb1)
	}
	if hits3-hits2 != 3 || miss3 != miss2 {
		t.Fatalf("naive tick moved (hits, misses) by (%d, %d), want (3, 0)", hits3-hits2, miss3-miss2)
	}
}

// TestDeltaReinitOnTickGap: a query that skips instants (overload
// coalescing, replay AdvanceTo) cannot catch up from the event log —
// window back-events may be trimmed — so the next delta tick must rebuild,
// and the rebuilt result must match a naive twin exactly.
func TestDeltaReinitOnTickGap(t *testing.T) {
	s := newScenario(t)
	qd, err := s.exec.Register("hot_delta", hotPlan(2))
	if err != nil {
		t.Fatal(err)
	}
	qn, err := s.exec.Register("hot_naive", hotPlan(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.exec.SetNaiveEvaluation("hot_naive", true); err != nil {
		t.Fatal(err)
	}
	reinits := func() int64 { return obs.Default.Counter("cq.delta.reinits").Value() }

	base := reinits()
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := reinits() - base; got != 1 {
		t.Fatalf("first tick recorded %d re-inits, want 1", got)
	}
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := reinits() - base; got != 1 {
		t.Fatalf("steady tick re-inited (total %d)", got)
	}

	// Jump the clock: the next tick's instant is not lastAt+1.
	s.exec.AdvanceTo(s.exec.Now() + 3)
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := reinits() - base; got != 2 {
		t.Fatalf("gap tick recorded %d total re-inits, want 2", got)
	}
	if d, n := qd.EvalCounts(); d != 3 || n != 0 {
		t.Fatalf("gap must stay on the delta path: EvalCounts = (%d, %d)", d, n)
	}
	if !qd.LastResult().EqualContents(qn.LastResult()) {
		t.Fatalf("post-gap results diverged:\ndelta:\n%s\nnaive:\n%s",
			qd.LastResult().Table(), qn.LastResult().Table())
	}
}

// TestDeltaReport checks the EXPLAIN ANALYZE surface: one line per
// operator in plan order, live tick/re-init totals, and per-operator call
// counts matching the instants evaluated.
func TestDeltaReport(t *testing.T) {
	s := newScenario(t)
	q, err := s.exec.Register("hot", hotPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.exec.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rep := q.DeltaReport()
	if rep == "" {
		t.Fatal("delta query rendered an empty report")
	}
	lines := strings.Split(strings.TrimRight(rep, "\n"), "\n")
	// Header + σ + W (the windowed base folds into one operator).
	if len(lines) != 3 {
		t.Fatalf("report has %d lines, want 3:\n%s", len(lines), rep)
	}
	if !strings.Contains(lines[0], "4 tick(s)") || !strings.Contains(lines[0], "1 re-init(s)") {
		t.Fatalf("report header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "calls=4") {
			t.Fatalf("operator line %q missing calls=4", l)
		}
		if !strings.Contains(l, "rows_in=") || !strings.Contains(l, "rows_out=") {
			t.Fatalf("operator line %q missing row counters", l)
		}
	}
	// The two operator labels appear in plan order: σ above its window.
	if !strings.Contains(lines[1], "select") && !strings.Contains(lines[1], "σ") {
		t.Fatalf("first operator line %q is not the selection", lines[1])
	}
	if !strings.Contains(lines[2], "window") && !strings.Contains(lines[2], "W[") {
		t.Fatalf("second operator line %q is not the window", lines[2])
	}
}
