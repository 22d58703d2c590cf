package cq_test

import (
	"fmt"
	"testing"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/query"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// The two evaluator comparisons below count heap allocations per tick, not
// time: an allocation count is the same on every machine, so each fast arm
// must beat its slow arm on the same shape in the same process, with no
// baseline to drift. Two runs of the same arm can still differ by a few
// allocations (map growth, the runtime's own), so the fast arm must stay
// under three quarters of the slow one; at every size here it stays under
// two thirds.

// allocsPerTick feeds and ticks exec, returning the mean allocations of one
// steady-state tick.
func allocsPerTick(t *testing.T, exec *cq.Executor, feed func(service.Instant)) float64 {
	t.Helper()
	return testing.AllocsPerRun(2, func() {
		feed(exec.Now() + 1)
		if _, err := exec.Tick(); err != nil {
			t.Fatal(err)
		}
	})
}

// deltaSweepAllocs runs a windowed β-invocation plan over a reading stream
// with a churn of 8 fresh tuples per instant and a window of n rows,
// pre-filled and warmed up, and returns one steady tick's allocations. The
// naive evaluator touches all n window rows every instant (n §4.2 cache
// consults and a full re-diff); the delta evaluator touches the ~2·churn
// changed rows.
func deltaSweepAllocs(t *testing.T, n int, naive bool) float64 {
	t.Helper()
	const (
		churn   = 8
		sensors = 16
	)
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sensors; i++ {
		if err := reg.Register(device.NewSensor(fmt.Sprintf("sensor%04d", i), fmt.Sprintf("loc%d", i%4), 20)); err != nil {
			t.Fatal(err)
		}
	}
	readings := stream.NewInfinite(schema.MustExtended("readings", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "location", Type: value.String}},
		{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}, Virtual: true},
	}, []schema.BindingPattern{{Proto: device.GetTemperatureProto(), ServiceAttr: "sensor"}}))
	exec := cq.NewExecutor(reg, cq.Options{})
	if err := exec.AddRelation(readings); err != nil {
		t.Fatal(err)
	}
	period := int64(n / churn)
	seq := 0
	feed := func(at service.Instant) {
		for j := 0; j < churn; j++ {
			err := readings.Insert(at, value.Tuple{
				value.NewService(fmt.Sprintf("sensor%04d", seq%sensors)),
				value.NewString(fmt.Sprintf("r%07d", seq)),
			})
			if err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	// One full window of history, with the clock parked just before it.
	for at := int64(0); at < period; at++ {
		feed(service.Instant(at))
	}
	exec.AdvanceTo(service.Instant(period - 1))
	q, err := exec.Register("t",
		query.NewInvoke(query.NewWindow(query.NewBase("readings"), period), "getTemperature", ""))
	if err != nil {
		t.Fatal(err)
	}
	if naive {
		if err := exec.SetNaiveEvaluation("t", true); err != nil {
			t.Fatal(err)
		}
	} else if got := q.EvaluationMode(); got != "delta" {
		t.Fatalf("evaluation mode = %q, want delta", got)
	}
	// Two warm-up ticks: the first pays the window build and the physical
	// invocations that seed the §4.2 cache.
	for i := 0; i < 2; i++ {
		feed(exec.Now() + 1)
		if _, err := exec.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.LastResult().Len(); got != n {
		t.Fatalf("steady window carries %d rows, want %d", got, n)
	}
	allocs := allocsPerTick(t, exec, feed)
	// One physical call per sensor, at the first tick: every later reading
	// names one of the 16 sensors again and is served from the §4.2 cache,
	// whichever evaluator runs.
	if got := q.Stats().Passive; got != sensors {
		t.Errorf("naive=%v: %d physical invocations, want %d", naive, got, sensors)
	}
	return allocs
}

func TestDeltaAllocatesLessThanNaive(t *testing.T) {
	for _, n := range []int{64, 1024, 16384} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			naive := deltaSweepAllocs(t, n, true)
			delta := deltaSweepAllocs(t, n, false)
			if delta >= 0.75*naive {
				t.Errorf("delta allocates %.0f/tick, naive %.0f/tick: delta must allocate less", delta, naive)
			}
			t.Logf("allocs/tick: naive %.0f, delta %.0f", naive, delta)
		})
	}
}

// fanInAllocs registers readers over one windowed selection and returns one
// steady tick's allocations: with materialized, one producer writes the
// selection INTO a derived relation the readers project; otherwise every
// reader re-evaluates the selection itself.
func fanInAllocs(t *testing.T, readers int, materialized bool) float64 {
	t.Helper()
	const (
		churn  = 16 // fresh events per instant
		period = 64 // window the shared selection scans
	)
	exec := cq.NewExecutor(service.NewRegistry(), cq.Options{})
	events := stream.NewInfinite(schema.MustExtended("events", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "id", Type: value.Int}},
		{Attribute: schema.Attribute{Name: "payload", Type: value.String}},
	}, nil))
	if err := exec.AddRelation(events); err != nil {
		t.Fatal(err)
	}
	seq := 0
	feed := func(at service.Instant) {
		for j := 0; j < churn; j++ {
			seq++
			err := events.Insert(at, value.Tuple{
				value.NewInt(int64(seq)), value.NewString(fmt.Sprintf("p%02d", seq%16)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The downsample shape INTO exists for: the windowed scan touches every
	// event, the selection keeps 2 of 16 payload classes, and readers
	// consume the compact derived relation.
	shared := func() query.Node {
		return query.NewSelect(
			query.NewWindow(query.NewBase("events"), period),
			algebra.Compare(algebra.Attr("payload"), algebra.Contains, algebra.Const(value.NewString("3"))))
	}
	if materialized {
		if _, err := exec.RegisterWith("producer", shared(), cq.RegisterOptions{Into: "hotmat", Retain: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < readers; i++ {
		plan := query.NewProject(shared(), "id")
		if materialized {
			plan = query.NewProject(query.NewBase("hotmat"), "id")
		}
		q, err := exec.Register(fmt.Sprintf("reader%02d", i), plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.EvaluationMode(); got != "delta" {
			t.Fatalf("reader mode = %q, want delta", got)
		}
	}
	// Warm up past the window build.
	for i := 0; i < 2; i++ {
		feed(exec.Now() + 1)
		if _, err := exec.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return allocsPerTick(t, exec, feed)
}

func TestMaterializedReadersAllocateLessThanReevaluation(t *testing.T) {
	for _, readers := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			reeval := fanInAllocs(t, readers, false)
			materialized := fanInAllocs(t, readers, true)
			if materialized >= 0.75*reeval {
				t.Errorf("materialized readers allocate %.0f/tick, re-evaluation %.0f/tick: materialized must allocate less",
					materialized, reeval)
			}
			t.Logf("allocs/tick: reeval %.0f, materialized %.0f", reeval, materialized)
		})
	}
}
