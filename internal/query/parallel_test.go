package query_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// slowSensor injects latency per invocation.
type slowSensor struct {
	*device.Sensor
	d time.Duration
}

func (s slowSensor) Invoke(ctx context.Context, proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if err := resilience.SleepCtx(ctx, s.d); err != nil {
		return nil, err
	}
	return s.Sensor.Invoke(ctx, proto, in, at)
}

func slowEnv(t *testing.T, n int, latency time.Duration) (query.MapEnv, *service.Registry) {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Tuple, n)
	for i := 0; i < n; i++ {
		ref := fmt.Sprintf("s%03d", i)
		if err := reg.Register(slowSensor{device.NewSensor(ref, "lab", float64(i)), latency}); err != nil {
			t.Fatal(err)
		}
		rows[i] = value.Tuple{value.NewService(ref), value.NewString("lab")}
	}
	sensors := algebra.MustNew(paperenv.SensorsSchema(), rows)
	return query.MapEnv{"sensors": sensors}, reg
}

func TestParallelInvokeSameResultAsSequential(t *testing.T) {
	env, reg := slowEnv(t, 16, 0)
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")

	seq := query.NewContext(env, reg, 0)
	rSeq, err := query.EvaluateCtx(q, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := query.NewContext(env, reg, 0)
	par.Parallelism = 8
	rPar, err := query.EvaluateCtx(q, par)
	if err != nil {
		t.Fatal(err)
	}
	if !rSeq.Relation.EqualContents(rPar.Relation) {
		t.Fatal("parallel invocation changed the result")
	}
	if rPar.Stats.Passive != 16 {
		t.Fatalf("parallel stats = %+v", rPar.Stats)
	}
}

func TestParallelInvokeIsFasterUnderLatency(t *testing.T) {
	const n, lat = 16, 10 * time.Millisecond
	env, reg := slowEnv(t, n, lat)
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")

	start := time.Now()
	if _, err := query.Evaluate(q, env, reg, 0); err != nil {
		t.Fatal(err)
	}
	seq := time.Since(start)

	ctx := query.NewContext(env, reg, 1)
	ctx.Parallelism = 8
	start = time.Now()
	if _, err := query.EvaluateCtx(q, ctx); err != nil {
		t.Fatal(err)
	}
	par := time.Since(start)
	// Sequential ≈ n×lat = 160ms; parallel ≈ (n/8)×lat = 20ms. Require a
	// conservative 3× to stay robust on loaded machines.
	if par*3 > seq {
		t.Fatalf("parallel (%v) not meaningfully faster than sequential (%v)", par, seq)
	}
}

func TestParallelActiveInvocationsRecordAllActions(t *testing.T) {
	reg, dev := paperenv.MustRegistry()
	env := query.MapEnv{"contacts": paperenv.Contacts()}
	q := query.NewInvoke(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("x")),
		"sendMessage", "")
	ctx := query.NewContext(env, reg, 0)
	ctx.Parallelism = 4
	res, err := query.EvaluateCtx(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions.Len() != 3 || res.Relation.Len() != 3 {
		t.Fatalf("actions = %s, rows = %d", res.Actions, res.Relation.Len())
	}
	total := len(dev.Messengers["email"].Outbox()) + len(dev.Messengers["jabber"].Outbox())
	if total != 3 {
		t.Fatalf("deliveries = %d", total)
	}
}

// Two contacts that differ only in name project onto one action
// sendMessage(address, text): the action set is a set (Definition 8), so
// the message goes out once and both tuples share its result.
func TestDuplicateActiveJobFiresOnce(t *testing.T) {
	reg, dev := paperenv.MustRegistry()
	contacts := algebra.MustNew(paperenv.ContactsSchema(), []value.Tuple{
		{value.NewString("Nicolas"), value.NewString("shared@elysee.fr"), value.NewService("email")},
		{value.NewString("Nico"), value.NewString("shared@elysee.fr"), value.NewService("email")},
	})
	q := query.NewInvoke(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("hi")),
		"sendMessage", "")
	res, err := query.Evaluate(q, query.MapEnv{"contacts": contacts}, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions.Len() != 1 || res.Relation.Len() != 2 {
		t.Fatalf("actions = %s, rows = %d; want 1 action, 2 rows", res.Actions, res.Relation.Len())
	}
	if out := dev.Messengers["email"].Outbox(); len(out) != 1 {
		t.Fatalf("outbox = %v, want 1 delivery", out)
	}
}

func TestParallelInvokeErrorIsDeterministic(t *testing.T) {
	// Several failing services: the reported error must be the first in
	// input order regardless of completion order.
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("dead")
	var rows []value.Tuple
	for i := 0; i < 8; i++ {
		ref := fmt.Sprintf("s%d", i)
		i := i
		err := reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
			"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				time.Sleep(time.Duration(8-i) * time.Millisecond) // later inputs finish first
				if i >= 2 {
					return nil, fmt.Errorf("%w: %d", boom, i)
				}
				return []value.Tuple{{value.NewReal(1)}}, nil
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, value.Tuple{value.NewService(ref), value.NewString("lab")})
	}
	env := query.MapEnv{"sensors": algebra.MustNew(paperenv.SensorsSchema(), rows)}
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	for trial := 0; trial < 5; trial++ {
		ctx := query.NewContext(env, reg, service.Instant(trial))
		ctx.Parallelism = 8
		_, err := query.EvaluateCtx(q, ctx)
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		// First failing input is s2.
		if want := "dead: 2"; !strings.Contains(err.Error(), want) {
			t.Fatalf("trial %d: err = %v, want first-in-order %q", trial, err, want)
		}
	}
}

func TestParallelSkipPolicy(t *testing.T) {
	// Error policy + parallelism: failing tuples are skipped concurrently.
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	var rows []value.Tuple
	for i := 0; i < 8; i++ {
		ref := fmt.Sprintf("s%d", i)
		i := i
		_ = reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
			"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				if i%2 == 1 {
					return nil, errors.New("flaky")
				}
				return []value.Tuple{{value.NewReal(float64(i))}}, nil
			},
		}))
		rows = append(rows, value.Tuple{value.NewService(ref), value.NewString("lab")})
	}
	env := query.MapEnv{"sensors": algebra.MustNew(paperenv.SensorsSchema(), rows)}
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	ctx := query.NewContext(env, reg, 0)
	ctx.Parallelism = 4
	var skips int
	ctx.OnInvokeError = func(schema.BindingPattern, string, value.Tuple, error) error {
		skips++ // called under the context's lock
		return nil
	}
	res, err := query.EvaluateCtx(q, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 4 || skips != 4 {
		t.Fatalf("rows = %d, skips = %d, want 4/4", res.Relation.Len(), skips)
	}
}

// TestParallelStopsSchedulingAfterFatalError is the regression test for the
// β over-firing bug: with FAIL semantics the whole operator aborts on the
// first error, so every invocation dispatched after the failure is a pure
// side effect whose result is thrown away. The pool must stop starting new
// dispatches once a worker has recorded a fatal outcome.
func TestParallelStopsSchedulingAfterFatalError(t *testing.T) {
	const jobs = 100
	boom := errors.New("sensor on fire")
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	work := make([]algebra.InvokeJob, jobs)
	for i := range work {
		// The poisoned ref is the FIRST job, so a worker hits it at once
		// while the other workers are still sleeping in their first call.
		ref, fail := fmt.Sprintf("ok%03d", i), i == 0
		if fail {
			ref = "poison"
		}
		err := reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
			"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				calls.Add(1)
				if fail {
					return nil, boom
				}
				time.Sleep(5 * time.Millisecond)
				return []value.Tuple{{value.NewReal(20)}}, nil
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		work[i] = algebra.InvokeJob{Ref: ref, Input: value.Tuple{}}
	}
	bp, err := paperenv.SensorsSchema().FindBP("getTemperature", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := query.NewContext(query.MapEnv{}, reg, 0)
	ctx.Parallelism = 4
	if out := ctx.InvokeAll(bp, work); !errors.Is(out[0].Err, boom) {
		t.Fatalf("error not propagated: %+v", out[0])
	}
	// Workers already mid-call when the failure lands may finish (bounded
	// by the worker count); anything near the full job count means the
	// pool kept scheduling after the error.
	if got := calls.Load(); got > 16 {
		t.Fatalf("pool fired %d invocations after a fatal error on job 0 (want ≤ 16 of %d)", got, jobs)
	}
}
