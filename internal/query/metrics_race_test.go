package query_test

import (
	"sync"
	"testing"

	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/query"
	"serena/internal/schema"
	"serena/internal/value"
)

// TestMetricsConcurrentExactness hammers ONE instrumented query.Context
// from Parallelism goroutines — the way the dispatch pool fans out under
// .parallel — and asserts the counters are exact, not approximate:
// every operation lands in exactly one bucket and no increment is lost.
// Run with -race (the CI gate does).
func TestMetricsConcurrentExactness(t *testing.T) {
	env, reg, _ := paperSetup()

	sensorBP := schema.BindingPattern{Proto: device.GetTemperatureProto(), ServiceAttr: "sensor"}
	messageBP := schema.BindingPattern{Proto: device.SendMessageProto(), ServiceAttr: "messenger"}
	refs := []string{"sensor01", "sensor06", "sensor07", "sensor22"}

	ctx := query.NewContext(env, reg, 3)
	ctx.Parallelism = 8

	const perWorker = 250
	workers := ctx.Parallelism

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ref := refs[(w+i)%len(refs)]
				if err := ctx.InvokeAll(sensorBP, []algebra.InvokeJob{{Ref: ref}})[0].Err; err != nil {
					t.Errorf("worker %d: passive invoke: %v", w, err)
					return
				}
				if i%50 == 0 { // a sprinkle of active invocations
					in := value.Tuple{value.NewString("x@example.org"), value.NewString("hi")}
					if err := ctx.InvokeAll(messageBP, []algebra.InvokeJob{{Ref: "email", Input: in}})[0].Err; err != nil {
						t.Errorf("worker %d: active invoke: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Query-level obs counters are batched per evaluation; flush the deltas
	// the way EvaluateCtx does after q.Eval.
	ctx.PublishObsStats()

	totalPassiveOps := int64(workers * perWorker)
	totalActiveOps := int64(workers * (perWorker / 50))

	// Context-local stats: every passive op is counted exactly once — as a
	// physical invocation, a memo hit, or a lookup that found the same key
	// in flight on another worker and waited for that call's result.
	if got := ctx.Stats.Passive + ctx.Stats.Memoized + ctx.Stats.Coalesced; got != totalPassiveOps {
		t.Fatalf("passive+memoized+coalesced = %d (%d+%d+%d), want %d",
			got, ctx.Stats.Passive, ctx.Stats.Memoized, ctx.Stats.Coalesced, totalPassiveOps)
	}
	if ctx.Stats.Active != totalActiveOps {
		t.Fatalf("active = %d, want %d", ctx.Stats.Active, totalActiveOps)
	}

	// The registry's metrics — this test's alone, since every registry has
	// its own — must agree with the context-local counts exactly.
	m := reg.Metrics()
	passiveDelta := m.Counter("query.invoke.passive").Value()
	memoDelta := m.Counter("query.invoke.memoized").Value()
	activeDelta := m.Counter("query.invoke.active").Value()
	callsDelta := m.Counter("service.invoke.calls").Value()

	if passiveDelta != ctx.Stats.Passive {
		t.Fatalf("obs passive = %d, context counted %d", passiveDelta, ctx.Stats.Passive)
	}
	if memoDelta != ctx.Stats.Memoized {
		t.Fatalf("obs memoized = %d, context counted %d", memoDelta, ctx.Stats.Memoized)
	}
	if d := m.Counter("query.invoke.coalesced").Value(); d != ctx.Stats.Coalesced {
		t.Fatalf("obs coalesced = %d, context counted %d", d, ctx.Stats.Coalesced)
	}
	if activeDelta != ctx.Stats.Active {
		t.Fatalf("obs active = %d, context counted %d", activeDelta, ctx.Stats.Active)
	}
	// Physical service calls = passive misses + active invocations (memo
	// hits never reach the registry).
	if want := passiveDelta + activeDelta; callsDelta != want {
		t.Fatalf("service.invoke.calls = %d, want %d (passive %d + active %d)",
			callsDelta, want, passiveDelta, activeDelta)
	}

	// The action set is a SET: the same (bp, ref, input) hammered from every
	// worker collapses to one action (Definition 8).
	if ctx.Actions.Len() != 1 {
		t.Fatalf("action set Len = %d, want 1", ctx.Actions.Len())
	}
}
