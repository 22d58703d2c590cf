package service

import (
	"context"
	"fmt"
	"sync/atomic"

	"serena/internal/resilience"
	"serena/internal/value"
)

// Faulty wraps a Service with a deterministic fault-injection plan:
// failures, extra latency, stalls and availability windows are decided by
// the discrete instant (and call identity), never by wall-clock randomness,
// so chaos tests replay identically. The wrapper counts physical calls,
// which lets tests prove that a short-circuited invocation (open breaker)
// never reached the service.
type Faulty struct {
	inner Service
	plan  *resilience.FaultPlan
	calls atomic.Int64
}

// NewFaulty wraps a service under a fault plan (nil plan injects nothing).
func NewFaulty(inner Service, plan *resilience.FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan}
}

// Ref implements Service.
func (f *Faulty) Ref() string { return f.inner.Ref() }

// PrototypeNames implements Service.
func (f *Faulty) PrototypeNames() []string { return f.inner.PrototypeNames() }

// Implements implements Service.
func (f *Faulty) Implements(proto string) bool { return f.inner.Implements(proto) }

// Calls returns how many invocations physically reached this wrapper.
func (f *Faulty) Calls() int64 { return f.calls.Load() }

// Invoke implements Service, applying the plan before delegating. Injected
// stalls and delays honor the caller's deadline, so a registry invocation
// timeout cuts a hung or slow fault short exactly as it would a real slow
// dependency.
func (f *Faulty) Invoke(ctx context.Context, proto string, input value.Tuple, at Instant) ([]value.Tuple, error) {
	f.calls.Add(1)
	key := f.inner.Ref() + "|" + proto + "|" + input.Key()
	if stall := f.plan.StallDuration(int64(at)); stall > 0 {
		// A stalled call hangs, then fails: the answer never comes.
		if err := resilience.SleepCtx(ctx, stall); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: stalled %s on %s at %d", resilience.ErrInjected, proto, f.inner.Ref(), at)
	}
	if f.plan.ShouldFail(int64(at), key) {
		return nil, fmt.Errorf("%w: %s on %s at %d", resilience.ErrInjected, proto, f.inner.Ref(), at)
	}
	if d := f.plan.Delay(int64(at), key); d > 0 {
		if err := resilience.SleepCtx(ctx, d); err != nil {
			return nil, err
		}
	}
	return f.inner.Invoke(ctx, proto, input, at)
}
