package cq_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// slowTickExec builds an executor whose single query invokes services that
// each take `lat` per call, so one tick holds the tick path busy for a
// measurable while.
func slowTickExec(t *testing.T, n int, lat time.Duration) *cq.Executor {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	fin := stream.NewFinite(paperenv.SensorsSchema())
	for i := 0; i < n; i++ {
		ref := fmt.Sprintf("s%03d", i)
		err := reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
			"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				time.Sleep(lat)
				return []value.Tuple{{value.NewReal(20)}}, nil
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := fin.Insert(0, value.Tuple{value.NewService(ref), value.NewString("lab")}); err != nil {
			t.Fatal(err)
		}
	}
	exec := cq.NewExecutor(reg, cq.Options{})
	if err := exec.AddRelation(fin); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Register("temps", query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")); err != nil {
		t.Fatal(err)
	}
	return exec
}

// TestReadersDoNotBlockDuringSlowTick pins the lock-narrowing behavior: a
// tick spending hundreds of milliseconds in β invocations must not make
// Query/QueryNames/Stats/LastResult readers wait it out — they read under
// short field locks, not the tick lock.
func TestReadersDoNotBlockDuringSlowTick(t *testing.T) {
	const lat = 120 * time.Millisecond
	exec := slowTickExec(t, 3, lat) // sequential tick ≈ 360ms of invocations

	var wg sync.WaitGroup
	wg.Add(1)
	tickStart := time.Now()
	go func() {
		defer wg.Done()
		if _, err := exec.Tick(); err != nil {
			t.Errorf("tick: %v", err)
		}
	}()
	time.Sleep(40 * time.Millisecond) // let the tick get into its invocations

	readStart := time.Now()
	names := exec.QueryNames()
	q, ok := exec.Query("temps")
	if !ok {
		t.Fatal("query not visible mid-tick")
	}
	_ = q.Stats()
	_ = q.LastResult()
	_ = q.InvokeErrors()
	readLat := time.Since(readStart)

	wg.Wait()
	tickLat := time.Since(tickStart)
	if len(names) != 1 || names[0] != "temps" {
		t.Fatalf("names = %v", names)
	}
	if tickLat < 3*lat {
		t.Fatalf("fixture broken: tick took %v, expected ≥ %v of invocation latency", tickLat, 3*lat)
	}
	// The readers ran while the tick still had ≥200ms to go; anything near
	// the tick duration means they queued behind the tick lock.
	if readLat > lat {
		t.Fatalf("readers took %v during a %v tick — blocked on the tick lock", readLat, tickLat)
	}
}

// batchTransport stands in for a remote proxy: a registered Batcher is
// what turns the β dispatcher's grouping on (Registry.HasBatchTransport).
// No relation names its reference, so it is never invoked.
type batchTransport struct{}

func (batchTransport) Ref() string                  { return "transport" }
func (batchTransport) PrototypeNames() []string     { return []string{"checkPhoto"} }
func (batchTransport) Implements(proto string) bool { return proto == "checkPhoto" }

func (batchTransport) Invoke(context.Context, string, value.Tuple, service.Instant) ([]value.Tuple, error) {
	return nil, errors.New("transport: not reachable from the scenario")
}

func (t batchTransport) InvokeBatch(ctx context.Context, proto string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	out := make([]service.InvokeResult, len(inputs))
	for i, in := range inputs {
		out[i].Rows, out[i].Err = t.Invoke(ctx, proto, in, at)
	}
	return out
}

// TestParallelTickEquivalentToSequential runs the same scenario twice —
// fully sequential vs invocation-parallel with grouped β dispatch — and
// demands identical query results, action sets and physical deliveries
// (Definition 9 equivalence, end to end through the continuous executor).
// The passive queries (photos, q4) send several jobs per instant, so the
// grouped run goes through the fold/group planner.
func TestParallelTickEquivalentToSequential(t *testing.T) {
	type outcome struct {
		actions    int
		deliveries int
		shots      int64
		lastQ3     *algebra.XRelation
		lastHot    *algebra.XRelation
		lastPhotos *algebra.XRelation
		q4Events   int
	}
	run := func(parallel bool) outcome {
		var opts cq.Options
		if parallel {
			opts.Parallelism = 8
		}
		s := newScenarioWith(t, opts)
		plans := s.reg.Metrics().Counter("query.batch.plans")
		if parallel {
			if err := s.reg.Register(batchTransport{}); err != nil {
				t.Fatal(err)
			}
		}
		q, err := s.exec.Register("q3", q3())
		if err != nil {
			t.Fatal(err)
		}
		hot, err := s.exec.Register("hot", query.NewSelect(
			query.NewWindow(query.NewBase("temperatures"), 1),
			algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(28)))))
		if err != nil {
			t.Fatal(err)
		}
		photos, err := s.exec.Register("photos", query.NewInvoke(query.NewBase("cameras"), "checkPhoto", "camera"))
		if err != nil {
			t.Fatal(err)
		}
		q4q, err := s.exec.Register("q4", q4())
		if err != nil {
			t.Fatal(err)
		}
		s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 5, To: 8, Delta: 20})
		s.dev.Sensors["sensor22"].Heat(device.HeatEvent{From: 3, To: 4, Delta: -5})
		s.dev.Sensors["sensor01"].Heat(device.HeatEvent{From: 6, To: 7, Delta: -10})
		before := plans.Value()
		if err := s.exec.RunUntil(10); err != nil {
			t.Fatal(err)
		}
		if grouped := plans.Value() - before; parallel && grouped == 0 {
			t.Fatal("fixture broken: the grouped run planned no grouped dispatch")
		}
		var shots int64
		for _, c := range s.dev.Cameras {
			shots += c.Shots()
		}
		return outcome{
			actions:    q.Actions().Len(),
			deliveries: len(s.dev.Messengers["email"].Outbox()) + len(s.dev.Messengers["jabber"].Outbox()),
			shots:      shots,
			lastQ3:     q.LastResult(),
			lastHot:    hot.LastResult(),
			lastPhotos: photos.LastResult(),
			q4Events:   q4q.Output().EventCount(),
		}
	}
	seq := run(false)
	par := run(true)
	if seq.actions != par.actions {
		t.Fatalf("action sets differ: %d vs %d", seq.actions, par.actions)
	}
	if seq.deliveries != par.deliveries {
		t.Fatalf("physical deliveries differ: %d sequential vs %d parallel", seq.deliveries, par.deliveries)
	}
	if seq.shots != par.shots || seq.q4Events != par.q4Events {
		t.Fatalf("photos differ: %d shots / %d q4 events sequential vs %d / %d grouped",
			seq.shots, seq.q4Events, par.shots, par.q4Events)
	}
	if seq.q4Events == 0 {
		t.Fatal("fixture broken: q4 never fired")
	}
	if !seq.lastQ3.EqualContents(par.lastQ3) {
		t.Fatal("q3 results differ between sequential and parallel ticks")
	}
	if !seq.lastHot.EqualContents(par.lastHot) {
		t.Fatal("hot view differs between sequential and parallel ticks")
	}
	if !seq.lastPhotos.EqualContents(par.lastPhotos) {
		t.Fatal("photos view differs between sequential and grouped ticks")
	}
}

// TestParallelDeltaEquivalentToSequentialNaive is the incremental
// evaluator's concurrency gate (run it under -race): four delta queries
// tick with β parallelism 4 — so invocation results reach the delta
// operators from several dispatch goroutines — while reader goroutines
// hammer the delta observability surface mid-tick. The outcome must be
// bit-identical to the oracle: the same scenario, fully sequential (P=1),
// every query pinned naive.
func TestParallelDeltaEquivalentToSequentialNaive(t *testing.T) {
	plans := func() map[string]query.Node {
		return map[string]query.Node{
			"q3": q3(),
			"hot": query.NewSelect(
				query.NewWindow(query.NewBase("temperatures"), 2),
				algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(28)))),
			"climate": query.NewAggregate(
				query.NewWindow(query.NewBase("temperatures"), 3),
				[]string{"location"},
				[]algebra.AggSpec{
					{Func: algebra.Count, As: "n"},
					{Func: algebra.Mean, Attr: "temperature", As: "avg"},
					{Func: algebra.Max, Attr: "temperature", As: "high"},
				}),
			"photos": query.NewInvoke(query.NewBase("cameras"), "checkPhoto", "camera"),
		}
	}
	names := []string{"q3", "hot", "climate", "photos"}

	type outcome struct {
		results    map[string]*algebra.XRelation
		actions    *query.ActionSet
		deliveries int
	}
	run := func(parallelDelta bool) outcome {
		var opts cq.Options
		if parallelDelta {
			opts.Parallelism = 4
		}
		s := newScenarioWith(t, opts)
		qs := map[string]*cq.Query{}
		for name, plan := range plans() {
			q, err := s.exec.Register(name, plan)
			if err != nil {
				t.Fatal(err)
			}
			qs[name] = q
		}
		if parallelDelta {
			for _, name := range names {
				if got := qs[name].EvaluationMode(); got != "delta" {
					t.Fatalf("query %s runs %q, want delta", name, got)
				}
			}
		} else {
			for _, name := range names {
				if err := s.exec.SetNaiveEvaluation(name, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 3, To: 7, Delta: 20})
		s.dev.Sensors["sensor01"].Heat(device.HeatEvent{From: 5, To: 9, Delta: 15})

		// Concurrent readers: the delta report walks per-node atomic
		// counters the tick goroutines are bumping right now.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if parallelDelta {
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, name := range names {
							_ = qs[name].DeltaReport()
							_, _ = qs[name].EvalCounts()
							_ = qs[name].EvaluationMode()
							_ = qs[name].LastResult()
						}
					}
				}()
			}
		}
		if err := s.exec.RunUntil(12); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()

		o := outcome{
			results:    map[string]*algebra.XRelation{},
			actions:    qs["q3"].Actions(),
			deliveries: len(s.dev.Messengers["email"].Outbox()) + len(s.dev.Messengers["jabber"].Outbox()),
		}
		for _, name := range names {
			o.results[name] = qs[name].LastResult()
		}
		if parallelDelta {
			for _, name := range names {
				if d, n := qs[name].EvalCounts(); d == 0 || n != 0 {
					t.Fatalf("query %s EvalCounts = (%d, %d), want all-delta", name, d, n)
				}
			}
		}
		return o
	}

	oracle := run(false)
	par := run(true)
	for _, name := range names {
		if !oracle.results[name].EqualContents(par.results[name]) {
			t.Errorf("query %s diverged from the sequential naive oracle\n naive: %s\n delta: %s",
				name, oracle.results[name], par.results[name])
		}
	}
	if !oracle.actions.Equal(par.actions) {
		t.Errorf("q3 action sets diverged\n naive: %s\n delta: %s", oracle.actions, par.actions)
	}
	if oracle.deliveries != par.deliveries {
		t.Errorf("physical deliveries diverged: %d naive vs %d delta", oracle.deliveries, par.deliveries)
	}
}
