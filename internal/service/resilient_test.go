package service_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

func probeProto() *schema.Prototype {
	return schema.MustPrototype("probe", nil,
		schema.MustRel(schema.Attribute{Name: "v", Type: value.Real}), false)
}

func fireProto() *schema.Prototype {
	return schema.MustPrototype("fire", nil,
		schema.MustRel(schema.Attribute{Name: "done", Type: value.Bool}), true)
}

// flakyN fails the first n invocations, then succeeds.
func flakyN(ref, proto string, n int64, calls *atomic.Int64) *service.Func {
	return service.NewFunc(ref, map[string]service.InvokeFunc{
		proto: func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			if calls.Add(1) <= n {
				return nil, errors.New("transient outage")
			}
			if proto == "fire" {
				return []value.Tuple{{value.NewBool(true)}}, nil
			}
			return []value.Tuple{{value.NewReal(21)}}, nil
		},
	})
}

func TestPassiveRetryRecovers(t *testing.T) {
	reg := service.NewRegistry(service.Options{Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	if err := reg.RegisterPrototype(probeProto()); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if err := reg.Register(flakyN("s", "probe", 2, &calls)); err != nil {
		t.Fatal(err)
	}
	rows, err := reg.Invoke("probe", "s", nil, 0)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if len(rows) != 1 || calls.Load() != 3 {
		t.Fatalf("rows = %v, physical calls = %d (want 3)", rows, calls.Load())
	}
}

func TestActivePrototypeNeverRetried(t *testing.T) {
	reg := service.NewRegistry(service.Options{Retry: resilience.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}})
	if err := reg.RegisterPrototype(fireProto()); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if err := reg.Register(flakyN("a", "fire", 1, &calls)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Invoke("fire", "a", nil, 0); err == nil {
		t.Fatal("failed active invocation reported success")
	}
	// Exactly one physical attempt: an active retry would duplicate the
	// action set (Definition 8).
	if calls.Load() != 1 {
		t.Fatalf("active prototype attempted %d times, want 1", calls.Load())
	}
}

func TestRetryStopsAtDeadline(t *testing.T) {
	reg := service.NewRegistry(service.Options{Retry: resilience.RetryPolicy{MaxAttempts: 1000, BaseDelay: 20 * time.Millisecond}})
	if err := reg.RegisterPrototype(probeProto()); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if err := reg.Register(flakyN("s", "probe", 1000, &calls)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := reg.InvokeCtx(ctx, "probe", "s", nil, 0)
	if err == nil {
		t.Fatal("expected failure")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("retry loop outlived its deadline (%v)", time.Since(start))
	}
}

func TestInvokeTimeoutBoundsHangingService(t *testing.T) {
	reg := service.NewRegistry(service.Options{InvokeTimeout: 30 * time.Millisecond})
	if err := reg.RegisterPrototype(probeProto()); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hang := service.NewFaulty(flakyN("hang", "probe", 0, &calls), &resilience.FaultPlan{
		StallIntervals: [][2]int64{{0, 0}},
		StallFor:       time.Hour,
	})
	if err := reg.Register(hang); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := reg.Invoke("probe", "hang", nil, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout too slow")
	}
}

func TestBreakerShortCircuitsAndRecovers(t *testing.T) {
	var now atomic.Int64 // fake clock, nanoseconds
	reg := service.NewRegistry(service.Options{Breakers: &resilience.BreakerPolicy{
		FailureThreshold: 3,
		Cooldown:         time.Second,
		Now:              func() time.Time { return time.Unix(0, now.Load()) },
	}})
	if err := reg.RegisterPrototype(probeProto()); err != nil {
		t.Fatal(err)
	}
	healthy := atomic.Bool{}
	inner := service.NewFunc("cam", map[string]service.InvokeFunc{
		"probe": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			if !healthy.Load() {
				return nil, errors.New("device down")
			}
			return []value.Tuple{{value.NewReal(1)}}, nil
		},
	})
	faulty := service.NewFaulty(inner, nil) // plan-free: just a call counter
	if err := reg.Register(faulty); err != nil {
		t.Fatal(err)
	}

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := reg.Invoke("probe", "cam", nil, service.Instant(i)); err == nil {
			t.Fatal("down device reported success")
		}
	}
	if got := reg.Breakers().State("cam"); got != resilience.Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	// Open: calls short-circuit WITHOUT reaching the service.
	before := faulty.Calls()
	for i := 0; i < 5; i++ {
		_, err := reg.Invoke("probe", "cam", nil, 10)
		if !errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("err = %v, want ErrOpen", err)
		}
	}
	if faulty.Calls() != before {
		t.Fatalf("open breaker leaked %d physical calls", faulty.Calls()-before)
	}
	// Open breaker masks the service out of discovery.
	if refs := reg.Implementing("probe"); len(refs) != 0 {
		t.Fatalf("open-breaker service still discoverable: %v", refs)
	}

	// Cooldown elapses; the service recovers; the half-open probe closes
	// the breaker and the service is discoverable again.
	healthy.Store(true)
	now.Store(int64(2 * time.Second))
	if _, err := reg.Invoke("probe", "cam", nil, 20); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := reg.Breakers().State("cam"); got != resilience.Closed {
		t.Fatalf("breaker state after probe = %v, want closed", got)
	}
	if refs := reg.Implementing("probe"); len(refs) != 1 {
		t.Fatalf("recovered service not discoverable: %v", refs)
	}
}

func TestReregisterResetsBreaker(t *testing.T) {
	reg := service.NewRegistry(service.Options{Breakers: &resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour}})
	if err := reg.RegisterPrototype(probeProto()); err != nil {
		t.Fatal(err)
	}
	down := service.NewFunc("s", map[string]service.InvokeFunc{
		"probe": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			return nil, errors.New("down")
		},
	})
	if err := reg.Register(down); err != nil {
		t.Fatal(err)
	}
	_, _ = reg.Invoke("probe", "s", nil, 0)
	if reg.Breakers().State("s") != resilience.Open {
		t.Fatal("breaker did not trip")
	}
	// The failing instance withdraws; a fresh one registers under the same
	// reference — it must start with a clean breaker.
	if err := reg.Unregister("s"); err != nil {
		t.Fatal(err)
	}
	up := service.NewFunc("s", map[string]service.InvokeFunc{
		"probe": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewReal(2)}}, nil
		},
	})
	if err := reg.Register(up); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Invoke("probe", "s", nil, 1); err != nil {
		t.Fatalf("re-registered service still broken: %v", err)
	}
}

func TestFaultyWrapperDeterminism(t *testing.T) {
	inner := service.NewFunc("s", map[string]service.InvokeFunc{
		"probe": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewReal(3)}}, nil
		},
	})
	plan := &resilience.FaultPlan{Seed: 7, FailureRate: 0.5}
	f1 := service.NewFaulty(inner, plan)
	f2 := service.NewFaulty(inner, plan)
	for at := service.Instant(0); at < 50; at++ {
		_, e1 := f1.Invoke(context.Background(), "probe", nil, at)
		_, e2 := f2.Invoke(context.Background(), "probe", nil, at)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("fault plan not deterministic at instant %d", at)
		}
	}
	if f1.Calls() != 50 {
		t.Fatalf("calls = %d", f1.Calls())
	}
	down := service.NewFaulty(inner, &resilience.FaultPlan{DownIntervals: [][2]int64{{2, 3}}})
	if _, err := down.Invoke(context.Background(), "probe", nil, 2); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("down interval err = %v", err)
	}
	if _, err := down.Invoke(context.Background(), "probe", nil, 4); err != nil {
		t.Fatalf("outside down interval: %v", err)
	}
}

// frameFake is a Batcher whose first failFrames frames fail every item;
// later frames answer each item through the wrapped Func.
type frameFake struct {
	*service.Func
	failFrames int64
	frames     atomic.Int64
}

func (f *frameFake) InvokeBatch(ctx context.Context, proto string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	n := f.frames.Add(1)
	out := make([]service.InvokeResult, len(inputs))
	for i, in := range inputs {
		if n <= f.failFrames {
			out[i].Err = errors.New("frame lost")
			continue
		}
		out[i].Rows, out[i].Err = f.Func.Invoke(ctx, proto, in, at)
	}
	return out
}

// A frame goes through the same retry loop as a single call: a passive
// frame whose first attempt fails is re-sent, an active one never is.
func TestFrameRetryMatchesSingleCall(t *testing.T) {
	for _, tc := range []struct {
		proto      *schema.Prototype
		wantFrames int64
		wantOK     bool
	}{
		{probeProto(), 2, true},
		{fireProto(), 1, false},
	} {
		t.Run(tc.proto.Name, func(t *testing.T) {
			reg := service.NewRegistry(service.Options{Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
			if err := reg.RegisterPrototype(tc.proto); err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			fake := &frameFake{Func: flakyN("s", tc.proto.Name, 0, &calls), failFrames: 1}
			if err := reg.Register(fake); err != nil {
				t.Fatal(err)
			}
			for i, res := range reg.InvokeAll(context.Background(), tc.proto.Name, "s", []value.Tuple{nil, nil}, 0) {
				if ok := res.Err == nil && len(res.Rows) == 1; ok != tc.wantOK {
					t.Fatalf("item %d = %v, %v; want success %v", i, res.Rows, res.Err, tc.wantOK)
				}
			}
			if got := fake.frames.Load(); got != tc.wantFrames {
				t.Fatalf("frames = %d, want %d", got, tc.wantFrames)
			}
		})
	}
}

// A local β invocation's allocations, pinned: oneshot makes hundreds of
// these per operation, so one more allocation each shows in its
// allocs_per_op. The service itself allocates two per call (the row slice
// and its tuple); the registry adds the conformed output slice, and a
// multi-item call its result and work slices.
func TestLocalInvokeAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(probeProto()); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if err := reg.Register(flakyN("s", "probe", 0, &calls)); err != nil {
		t.Fatal(err)
	}
	inputs := []value.Tuple{nil, nil, nil, nil}
	for _, tc := range []struct {
		name string
		max  float64
		call func()
	}{
		{"invoke", 3, func() { _, _ = reg.Invoke("probe", "s", nil, 1) }},
		{"invoke all of 4", 16, func() { _ = reg.InvokeAll(context.Background(), "probe", "s", inputs, 1) }},
	} {
		if got := testing.AllocsPerRun(200, tc.call); got > tc.max {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", tc.name, got, tc.max)
		}
	}
}
