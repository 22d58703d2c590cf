package cq_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

type schemaBP = schema.BindingPattern

// brokenSensor fails for a configurable window of instants.
type brokenSensor struct {
	*device.Sensor
	failFrom, failTo service.Instant
}

func (b *brokenSensor) Invoke(ctx context.Context, proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if at >= b.failFrom && at <= b.failTo {
		return nil, errors.New("device unreachable")
	}
	return b.Sensor.Invoke(ctx, proto, in, at)
}

func TestContinuousQuerySurvivesDeviceFailure(t *testing.T) {
	reg, _ := paperenv.MustRegistry()
	// Replace sensor01 with a flaky variant failing at instants 0..2.
	if err := reg.Unregister("sensor01"); err != nil {
		t.Fatal(err)
	}
	flaky := &brokenSensor{Sensor: device.NewSensor("sensor01", "corridor", 19), failFrom: 0, failTo: 2}
	if err := reg.Register(flaky); err != nil {
		t.Fatal(err)
	}

	exec := cq.NewExecutor(reg, cq.Options{})
	sensors := stream.NewFinite(paperenv.SensorsSchema())
	for _, tu := range paperenv.Sensors().Tuples() {
		if err := sensors.Insert(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := exec.AddRelation(sensors); err != nil {
		t.Fatal(err)
	}
	q, err := exec.Register("t", query.NewInvoke(query.NewBase("sensors"), "getTemperature", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Tick(); err != nil {
		t.Fatalf("flaky device aborted the query: %v", err)
	}
	// Partial result: 3 of 4 sensors answered.
	if q.LastResult().Len() != 3 {
		t.Fatalf("partial result = %d tuples, want 3", q.LastResult().Len())
	}
	errs := q.InvokeErrors()
	if len(errs) != 1 || errs[0].Ref != "sensor01" {
		t.Fatalf("recorded errors = %v", errs)
	}
	if !strings.Contains(errs[0].Error(), "unreachable") {
		t.Fatalf("error rendering = %v", errs[0])
	}
	// Failed tuples are retried (not cached): by instant 3 the sensor
	// recovers and appears in the result.
	if err := exec.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if q.LastResult().Len() != 4 {
		t.Fatalf("recovered result = %d tuples, want 4", q.LastResult().Len())
	}
	// Exactly 3 failures recorded (instants 0, 1, 2).
	if len(q.InvokeErrors()) != 3 {
		t.Fatalf("errors = %d, want 3", len(q.InvokeErrors()))
	}
}

func TestOneShotFailsFastOnDeviceError(t *testing.T) {
	reg, _ := paperenv.MustRegistry()
	if err := reg.Unregister("sensor01"); err != nil {
		t.Fatal(err)
	}
	flaky := &brokenSensor{Sensor: device.NewSensor("sensor01", "corridor", 19), failFrom: 0, failTo: 99}
	if err := reg.Register(flaky); err != nil {
		t.Fatal(err)
	}
	env := query.MapEnv{"sensors": paperenv.Sensors()}
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	if _, err := query.Evaluate(q, env, reg, 0); err == nil {
		t.Fatal("one-shot evaluation must fail fast by default")
	}
	// With an explicit skip policy the one-shot query degrades gracefully.
	ctx := query.NewContext(env, reg, 0)
	var skipped []query.InvokeError
	ctx.OnInvokeError = func(bp schemaBP, ref string, input value.Tuple, err error) error {
		skipped = append(skipped, query.InvokeError{BP: bp.ID(), Ref: ref, Input: input, Err: err})
		return nil
	}
	rel, err := q.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 || len(skipped) != 1 {
		t.Fatalf("skip policy: %d tuples, %d skips", rel.Len(), len(skipped))
	}
}

func TestActiveFailureStillRecordsAction(t *testing.T) {
	reg, dev := paperenv.MustRegistry()
	dev.Messengers["email"].ErrorFor("carla@elysee.fr")
	env := query.MapEnv{"contacts": paperenv.Contacts()}
	q := query.NewInvoke(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("x")),
		"sendMessage", "")
	ctx := query.NewContext(env, reg, 0)
	ctx.OnInvokeError = func(schemaBP, string, value.Tuple, error) error { return nil }
	rel, err := q.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Carla's send failed → 2 result tuples, but 3 attempted actions.
	if rel.Len() != 2 {
		t.Fatalf("result = %d tuples", rel.Len())
	}
	if ctx.Actions.Len() != 3 {
		t.Fatalf("attempted actions = %d, want 3 (failed attempts count)", ctx.Actions.Len())
	}
}

// TestDuplicateActionAttemptedOncePerInstant: two operand tuples that
// project onto one action (bp, ref, input) make one attempt per instant,
// even when the attempt fails and ON ERROR SKIP absorbs it — in the delta
// and in the naive evaluator alike.
func TestDuplicateActionAttemptedOncePerInstant(t *testing.T) {
	for _, naive := range []bool{false, true} {
		reg := service.NewRegistry()
		if err := reg.RegisterPrototype(device.SendMessageProto()); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		err := reg.Register(service.NewFunc("pager", map[string]service.InvokeFunc{
			"sendMessage": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				attempts++
				return nil, errors.New("pager offline")
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		exec := cq.NewExecutor(reg, cq.Options{})
		contacts := stream.NewFinite(paperenv.ContactsSchema())
		for _, name := range []string{"Ann", "Annie"} {
			tu := value.Tuple{value.NewString(name), value.NewString("ann@example.org"), value.NewService("pager")}
			if err := contacts.Insert(0, tu); err != nil {
				t.Fatal(err)
			}
		}
		if err := exec.AddRelation(contacts); err != nil {
			t.Fatal(err)
		}
		plan := query.NewInvoke(
			query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("hi")),
			"sendMessage", "")
		if _, err := exec.RegisterWith("page", plan, cq.RegisterOptions{Degradation: resilience.SkipTuple}); err != nil {
			t.Fatal(err)
		}
		if err := exec.SetNaiveEvaluation("page", naive); err != nil {
			t.Fatal(err)
		}
		for tick := 1; tick <= 3; tick++ {
			if _, err := exec.Tick(); err != nil {
				t.Fatal(err)
			}
			if attempts != tick {
				t.Fatalf("naive=%v: %d attempts after %d ticks, want one per instant", naive, attempts, tick)
			}
		}
	}
}
