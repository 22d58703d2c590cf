package cq_test

import (
	"testing"
	"time"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/value"
)

// TestIngestDrainOnTick: tuples staged with Offer become visible exactly at
// the next tick instant, via the normal Insert path.
func TestIngestDrainOnTick(t *testing.T) {
	s := newScenario(t)
	s.temps.SetOverloadPolicy(resilience.ShedOldest, 16)
	ref := value.NewService("sensor01")
	for i := 0; i < 3; i++ {
		if err := s.temps.Offer(value.Tuple{ref, value.NewString("lab"), value.NewReal(20)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.temps.IngestDepth(); d != 3 {
		t.Fatalf("depth = %d", d)
	}
	at, err := s.exec.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if d := s.temps.IngestDepth(); d != 0 {
		t.Fatalf("depth after tick = %d", d)
	}
	if got := len(s.temps.InsertedIn(at-1, at)); got < 3 {
		t.Fatalf("drained rows at instant %d = %d, want >= 3", at, got)
	}
}

// TestTickOverrunDetection: a tick slower than its budget is counted, and
// without a budget no tick is.
func TestTickOverrunDetection(t *testing.T) {
	for _, c := range []struct {
		budget time.Duration
		want   int64
	}{{time.Nanosecond, 1}, {0, 0}} {
		s := newScenarioWith(t, cq.Options{TickBudget: c.budget})
		if _, err := s.exec.Tick(); err != nil {
			t.Fatal(err)
		}
		if n := s.exec.TickOverruns(); n != c.want {
			t.Fatalf("budget %v: overruns = %d, want %d", c.budget, n, c.want)
		}
	}
}

// passiveView is an unconnected passive query — the only legal shedding
// victim.
func passiveView() query.Node {
	return query.NewSelect(
		query.NewWindow(query.NewBase("temperatures"), 1),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(28))))
}

// TestCoalescingNeverShedsActiveCone proves the Definition 8 invariant: an
// overloaded run (every tick over budget, coalescing on) produces exactly
// the control's action set; only passive-only queries detached from every
// active β are skipped, including transitively — a passive view FEEDING an
// active query is protected.
func TestCoalescingNeverShedsActiveCone(t *testing.T) {
	run := func(overloaded bool) (actions string, coalescedView, coalescedHot, coalescedAlert int64) {
		var opts cq.Options
		if overloaded {
			opts = cq.Options{TickBudget: time.Nanosecond, Coalesce: true}
		}
		s := newScenarioWith(t, opts)
		// "hot" is passive but feeds the active "alerts" query → protected.
		hot, err := s.exec.Register("hot", passiveView())
		if err != nil {
			t.Fatal(err)
		}
		alerts, err := s.exec.Register("alerts", query.NewInvoke(
			query.NewAssignConst(
				query.NewJoin(query.NewBase("contacts"), query.NewBase("hot")),
				"text", value.NewString("Hot!")),
			"sendMessage", ""))
		if err != nil {
			t.Fatal(err)
		}
		// "view" is passive and feeds nothing → shedable.
		view, err := s.exec.Register("view", passiveView())
		if err != nil {
			t.Fatal(err)
		}
		s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 2, To: 4, Delta: 10})
		if err := s.exec.RunUntil(6); err != nil {
			t.Fatal(err)
		}
		return alerts.Actions().String(), view.Coalesced(), hot.Coalesced(), alerts.Coalesced()
	}
	ctrlActions, _, _, _ := run(false)
	overActions, view, hot, alert := run(true)
	if ctrlActions != overActions {
		t.Fatalf("action set diverged under overload:\ncontrol:    %s\noverloaded: %s", ctrlActions, overActions)
	}
	if view == 0 {
		t.Fatal("the detached passive view was never coalesced — coalescing did not engage")
	}
	if hot != 0 {
		t.Fatalf("passive view feeding an active query was coalesced %d times", hot)
	}
	if alert != 0 {
		t.Fatalf("active query was coalesced %d times", alert)
	}
}

// TestBlockedProducerUnblocksOnTick: a producer blocked on BLOCK
// backpressure resumes when the tick drains the buffer.
func TestBlockedProducerUnblocksOnTick(t *testing.T) {
	s := newScenario(t)
	s.temps.SetOverloadPolicy(resilience.Block, 1)
	ref := value.NewService("sensor01")
	mk := func(v float64) value.Tuple {
		return value.Tuple{ref, value.NewString("lab"), value.NewReal(v)}
	}
	if err := s.temps.Offer(mk(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.temps.Offer(mk(2)) }()
	select {
	case err := <-done:
		t.Fatalf("second offer should block, returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked offer failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("tick drain did not unblock the producer")
	}
}
