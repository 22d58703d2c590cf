package cq_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"serena/internal/cq"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// chaosEnv builds a 1000-tuple environment over a single faulty device:
// relation work(dev SERVICE, id INTEGER, v REAL VIRTUAL) with binding
// pattern probe[dev](id):(v), where the probe fails a deterministic ~30% of
// calls at every instant.
func chaosEnv(t *testing.T, plan *resilience.FaultPlan) (*cq.Executor, *service.Faulty, *schema.Prototype) {
	t.Helper()
	proto := schema.MustPrototype("probe",
		schema.MustRel(schema.Attribute{Name: "id", Type: value.Int}),
		schema.MustRel(schema.Attribute{Name: "v", Type: value.Real}), false)
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(proto); err != nil {
		t.Fatal(err)
	}
	inner := service.NewFunc("dev", map[string]service.InvokeFunc{
		"probe": func(in value.Tuple, at service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewReal(float64(in[0].Int()))}}, nil
		},
	})
	faulty := service.NewFaulty(inner, plan)
	if err := reg.Register(faulty); err != nil {
		t.Fatal(err)
	}
	exec := cq.NewExecutor(reg, cq.Options{})
	sch := schema.MustExtended("work",
		[]schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "dev", Type: value.Service}},
			{Attribute: schema.Attribute{Name: "id", Type: value.Int}},
			{Attribute: schema.Attribute{Name: "v", Type: value.Real}, Virtual: true},
		},
		[]schema.BindingPattern{{Proto: proto, ServiceAttr: "dev"}})
	work := stream.NewFinite(sch)
	for i := 0; i < 1000; i++ {
		if err := work.Insert(0, value.Tuple{value.NewService("dev"), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := exec.AddRelation(work); err != nil {
		t.Fatal(err)
	}
	return exec, faulty, proto
}

// expectedFailures replays the fault plan's deterministic decision for
// every tuple at the given instant — the test oracle.
func expectedFailures(plan *resilience.FaultPlan, at int64) int {
	n := 0
	for i := 0; i < 1000; i++ {
		input := value.Tuple{value.NewInt(int64(i))}
		if plan.ShouldFail(at, "dev|probe|"+input.Key()) {
			n++
		}
	}
	return n
}

func TestChaosDegradationPolicies(t *testing.T) {
	// The executor's first Tick runs at instant 0, so the oracle replays the
	// plan at that instant.
	plan := &resilience.FaultPlan{Seed: 2026, FailureRate: 0.3}
	wantFail := expectedFailures(plan, 0)
	if wantFail < 250 || wantFail > 350 {
		t.Fatalf("fault plan failed %d/1000 calls; want ≈300", wantFail)
	}

	t.Run("FailFast", func(t *testing.T) {
		exec, _, _ := chaosEnv(t, plan)
		if _, err := exec.RegisterWith("q", query.NewInvoke(query.NewBase("work"), "probe", "dev"),
			cq.RegisterOptions{Degradation: resilience.FailFast}); err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Tick(); !errors.Is(err, resilience.ErrInjected) {
			t.Fatalf("FailFast tick error = %v, want injected fault", err)
		}
	})

	t.Run("SkipTuple", func(t *testing.T) {
		exec, _, _ := chaosEnv(t, plan)
		q, err := exec.RegisterWith("q", query.NewInvoke(query.NewBase("work"), "probe", "dev"),
			cq.RegisterOptions{Degradation: resilience.SkipTuple})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Tick(); err != nil {
			t.Fatalf("SkipTuple tick aborted: %v", err)
		}
		// Only the succeeded tuples appear; every one is fully realized.
		if got := q.LastResult().Len(); got != 1000-wantFail {
			t.Fatalf("SkipTuple result = %d tuples, want %d", got, 1000-wantFail)
		}
		for _, tu := range q.LastResult().Tuples() {
			if tu[2].IsNull() {
				t.Fatalf("SkipTuple leaked a NULL-filled tuple: %v", tu)
			}
		}
	})

	t.Run("NullFill", func(t *testing.T) {
		exec, _, _ := chaosEnv(t, plan)
		q, err := exec.RegisterWith("q", query.NewInvoke(query.NewBase("work"), "probe", "dev"),
			cq.RegisterOptions{Degradation: resilience.NullFill})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Tick(); err != nil {
			t.Fatalf("NullFill tick aborted: %v", err)
		}
		// Every tuple appears; exactly the failed ones carry NULL in the
		// realized virtual attribute.
		if got := q.LastResult().Len(); got != 1000 {
			t.Fatalf("NullFill result = %d tuples, want 1000", got)
		}
		nulls := 0
		for _, tu := range q.LastResult().Tuples() {
			if tu[2].IsNull() {
				nulls++
			}
		}
		if nulls != wantFail {
			t.Fatalf("NullFill realized %d NULLs, want %d", nulls, wantFail)
		}
		if len(q.InvokeErrors()) == 0 {
			t.Fatal("failures not recorded on the query")
		}
	})
}

// TestNullFilledTuplesRetryNextInstant pins the no-cache rule: a
// null-filled result is a stand-in, not a memoized answer — the tuple is
// re-invoked at the next instant and heals when the device does.
func TestNullFilledTuplesRetryNextInstant(t *testing.T) {
	plan := &resilience.FaultPlan{DownIntervals: [][2]int64{{0, 0}}} // down only at instant 0, the first tick
	exec, faulty, _ := chaosEnv(t, plan)
	q, err := exec.RegisterWith("q", query.NewInvoke(query.NewBase("work"), "probe", "dev"),
		cq.RegisterOptions{Degradation: resilience.NullFill})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Tick(); err != nil { // instant 1: everything fails
		t.Fatal(err)
	}
	for _, tu := range q.LastResult().Tuples() {
		if !tu[2].IsNull() {
			t.Fatalf("first instant should be all NULLs: %v", tu)
		}
	}
	calls := faulty.Calls()
	if _, err := exec.Tick(); err != nil { // instant 2: device healthy again
		t.Fatal(err)
	}
	if faulty.Calls() != calls+1000 {
		t.Fatalf("failed tuples not retried: %d extra calls, want 1000", faulty.Calls()-calls)
	}
	for _, tu := range q.LastResult().Tuples() {
		if tu[2].IsNull() {
			t.Fatalf("second instant should be healed: %v", tu)
		}
	}
	// Healthy results ARE cached: the next instant re-invokes nothing.
	calls = faulty.Calls()
	if _, err := exec.Tick(); err != nil {
		t.Fatal(err)
	}
	if faulty.Calls() != calls {
		t.Fatalf("cached tuples re-invoked %d times", faulty.Calls()-calls)
	}
}

// TestServiceWithdrawnMidQuery drives the paper's central volatility story
// end to end: tick N succeeds, the service withdraws, tick N+1 follows the
// degradation policy, the service re-registers, tick N+2 recovers.
func TestServiceWithdrawnMidQuery(t *testing.T) {
	for _, tc := range []struct {
		policy resilience.DegradationPolicy
		check  func(t *testing.T, q *cq.Query, tickErr error)
	}{
		{resilience.SkipTuple, func(t *testing.T, q *cq.Query, tickErr error) {
			if tickErr != nil {
				t.Fatalf("SkipTuple tick aborted: %v", tickErr)
			}
			if q.LastResult().Len() != 0 {
				t.Fatalf("withdrawn service still produced %d tuples", q.LastResult().Len())
			}
		}},
		{resilience.NullFill, func(t *testing.T, q *cq.Query, tickErr error) {
			if tickErr != nil {
				t.Fatalf("NullFill tick aborted: %v", tickErr)
			}
			if q.LastResult().Len() != 1 {
				t.Fatalf("NullFill dropped the tuple: %d", q.LastResult().Len())
			}
			if tu := q.LastResult().Tuples()[0]; !tu[2].IsNull() {
				t.Fatalf("NullFill tuple not null-filled: %v", tu)
			}
		}},
		{resilience.FailFast, func(t *testing.T, q *cq.Query, tickErr error) {
			if !errors.Is(tickErr, service.ErrUnknownService) {
				t.Fatalf("FailFast tick error = %v, want unknown service", tickErr)
			}
		}},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			proto := schema.MustPrototype("probe",
				schema.MustRel(schema.Attribute{Name: "id", Type: value.Int}),
				schema.MustRel(schema.Attribute{Name: "v", Type: value.Real}), false)
			reg := service.NewRegistry()
			if err := reg.RegisterPrototype(proto); err != nil {
				t.Fatal(err)
			}
			mkDev := func() service.Service {
				return service.NewFunc("dev", map[string]service.InvokeFunc{
					"probe": func(in value.Tuple, at service.Instant) ([]value.Tuple, error) {
						return []value.Tuple{{value.NewReal(float64(at))}}, nil
					},
				})
			}
			if err := reg.Register(mkDev()); err != nil {
				t.Fatal(err)
			}
			exec := cq.NewExecutor(reg, cq.Options{})
			sch := schema.MustExtended("work",
				[]schema.ExtAttr{
					{Attribute: schema.Attribute{Name: "dev", Type: value.Service}},
					{Attribute: schema.Attribute{Name: "id", Type: value.Int}},
					{Attribute: schema.Attribute{Name: "v", Type: value.Real}, Virtual: true},
				},
				[]schema.BindingPattern{{Proto: proto, ServiceAttr: "dev"}})
			work := stream.NewInfinite(sch)
			if err := exec.AddRelation(work); err != nil {
				t.Fatal(err)
			}
			// A fresh input tuple per instant, so the delta semantics of
			// Section 4.2 actually fire a new invocation every tick.
			exec.AddSource(func(at service.Instant) error {
				return work.Insert(at, value.Tuple{value.NewService("dev"), value.NewInt(int64(at))})
			})
			q, err := exec.RegisterWith("q",
				query.NewInvoke(query.NewWindow(query.NewBase("work"), 1), "probe", "dev"),
				cq.RegisterOptions{Degradation: tc.policy})
			if err != nil {
				t.Fatal(err)
			}

			// Tick 0: healthy.
			if _, err := exec.Tick(); err != nil {
				t.Fatal(err)
			}
			if q.LastResult().Len() != 1 {
				t.Fatalf("healthy tick = %d tuples", q.LastResult().Len())
			}

			// The service withdraws; tick 1 follows the policy.
			if err := reg.Unregister("dev"); err != nil {
				t.Fatal(err)
			}
			_, tickErr := exec.Tick()
			tc.check(t, q, tickErr)

			// The service re-registers; the next tick recovers fully.
			if err := reg.Register(mkDev()); err != nil {
				t.Fatal(err)
			}
			if _, err := exec.Tick(); err != nil {
				t.Fatalf("recovery tick: %v", err)
			}
			if q.LastResult().Len() != 1 {
				t.Fatalf("recovery tick = %d tuples", q.LastResult().Len())
			}
			if tu := q.LastResult().Tuples()[0]; tu[2].IsNull() {
				t.Fatalf("recovery tuple still null-filled: %v", tu)
			}
		})
	}
}

// TestBreakerWithdrawsServiceFromPolling proves the breaker ↔ discovery
// integration under the executor: a tripped breaker masks the service out
// of Implementing, so per-tick polling stops reaching it at all.
func TestBreakerShortCircuitsUnderExecutor(t *testing.T) {
	proto := schema.MustPrototype("probe", nil,
		schema.MustRel(schema.Attribute{Name: "v", Type: value.Real}), false)
	reg := service.NewRegistry(service.Options{Breakers: &resilience.BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour}})
	if err := reg.RegisterPrototype(proto); err != nil {
		t.Fatal(err)
	}
	inner := service.NewFunc("dev", map[string]service.InvokeFunc{
		"probe": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			return nil, fmt.Errorf("device down")
		},
	})
	faulty := service.NewFaulty(inner, nil)
	if err := reg.Register(faulty); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, err := reg.Invoke("probe", "dev", nil, service.Instant(i)); err == nil {
			t.Fatal("down device succeeded")
		}
	}
	if reg.Breakers().State("dev") != resilience.Open {
		t.Fatal("breaker did not trip")
	}
	// Masked out of discovery: a poll loop over Implementing never even
	// dials the tripped device.
	before := faulty.Calls()
	for _, ref := range reg.Implementing("probe") {
		_, _ = reg.Invoke("probe", ref, nil, 10)
	}
	if faulty.Calls() != before {
		t.Fatal("tripped device was still polled")
	}
}
