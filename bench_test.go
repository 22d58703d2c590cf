// Repository-wide benchmarks: one benchmark per experiment of
// EXPERIMENTS.md. The paper's own evaluation (Section 5.2) is qualitative;
// these benchmarks implement the quantitative "benchmark for pervasive
// environments" its Section 7 names as future work, plus the ablations of
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package serena_test

import (
	"fmt"
	"testing"
	"time"

	"serena/internal/algebra"
	"serena/internal/bench"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/obs"
	"serena/internal/optimizer"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/rewrite"
	"serena/internal/sal"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/ssql"
	"serena/internal/stream"
	"serena/internal/trace"
	"serena/internal/value"
	"serena/internal/wal"
	"serena/internal/wire"
)

// ---------------------------------------------------------------------------
// B-2: operator throughput. One sub-benchmark per Serena operator over
// synthetic relations of growing cardinality.

func synthRelation(n int) *algebra.XRelation {
	sch := schema.MustExtended("r", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "id", Type: value.Int}},
		{Attribute: schema.Attribute{Name: "grp", Type: value.String}},
		{Attribute: schema.Attribute{Name: "score", Type: value.Real}},
		{Attribute: schema.Attribute{Name: "tag", Type: value.String}, Virtual: true},
	}, nil)
	rows := make([]value.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = value.Tuple{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("g%02d", i%16)),
			value.NewReal(float64(i % 100)),
		}
	}
	return algebra.MustNew(sch, rows)
}

func BenchmarkOperators(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		r := synthRelation(n)
		other := synthRelation(n)
		f := algebra.Compare(algebra.Attr("score"), algebra.Gt, algebra.Const(value.NewReal(50)))

		b.Run(fmt.Sprintf("select/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Select(r, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("project/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Project(r, []string{"id", "grp"}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("join/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.NaturalJoin(r, other); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("assign/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.AssignConst(r, "tag", value.NewString("x")); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("union/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Union(r, other); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInvoke measures the invocation operator over in-process sensor
// services (no latency injection), per operand cardinality.
func BenchmarkInvoke(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		env := bench.MustGenerate(bench.Config{Sensors: n, Cameras: 1, Contacts: 1, Locations: 1, Seed: 1})
		q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Evaluate(q, env.Relations, env.Registry, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInvokeTraceOverhead is the tracing A/B: the BenchmarkInvoke
// workload with the tracer off, at the default head-sampling rate (1-in-64
// roots), and fully on (every root). The budget is ≤5% overhead for the
// default rate over off — the sampled and always rows exist to show where
// the cost lives, the off row is the baseline the budget is measured
// against. tracing/op reports the configured sampling interval so reports
// are self-describing.
func BenchmarkInvokeTraceOverhead(b *testing.B) {
	const n = 100
	env := bench.MustGenerate(bench.Config{Sensors: n, Cameras: 1, Contacts: 1, Locations: 1, Seed: 1})
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	prev := trace.Default.SampleEvery()
	defer func() {
		trace.Default.SetSampleEvery(prev)
		trace.Default.Reset()
	}()
	for _, mode := range []struct {
		name  string
		every int64
	}{
		{"off", 0},
		{"sampled", trace.DefaultSampleEvery},
		{"always", 1},
	} {
		b.Run(fmt.Sprintf("trace=%s", mode.name), func(b *testing.B) {
			trace.Default.SetSampleEvery(mode.every)
			trace.Default.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := query.Evaluate(q, env.Relations, env.Registry, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mode.every), "sample-every")
		})
	}
}

// ---------------------------------------------------------------------------
// B-1: selection pushdown below invocation, naive vs optimized, per
// selectivity. The per-op metric "invocations/op" carries the shape result.

func BenchmarkRewritePushdown(b *testing.B) {
	const sensors = 200
	for _, locs := range []int{1, 4, 20} {
		env := bench.MustGenerate(bench.Config{Sensors: sensors, Cameras: 1, Contacts: 1, Locations: locs, Seed: 1})
		loc := env.Locations[0]
		for _, mode := range []struct {
			name string
			q    query.Node
		}{
			{"naive", env.NaivePushdownQuery(loc)},
			{"optimized", env.OptimizedPushdownQuery(loc)},
		} {
			b.Run(fmt.Sprintf("sel=1/%d/%s", locs, mode.name), func(b *testing.B) {
				var invocations int64
				for i := 0; i < b.N; i++ {
					res, err := query.Evaluate(mode.q, env.Relations, env.Registry, service.Instant(i))
					if err != nil {
						b.Fatal(err)
					}
					invocations += res.Stats.Passive
				}
				b.ReportMetric(float64(invocations)/float64(b.N), "invocations/op")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// B-3: optimizer advantage vs injected service latency.

func BenchmarkOptimizerLatency(b *testing.B) {
	const sensors = 50
	for _, lat := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond} {
		env := bench.MustGenerate(bench.Config{
			Sensors: sensors, Cameras: 1, Contacts: 1, Locations: 10,
			ServiceLatency: lat, Seed: 1,
		})
		loc := env.Locations[0]
		b.Run(fmt.Sprintf("lat=%s/naive", lat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Evaluate(env.NaivePushdownQuery(loc), env.Relations, env.Registry, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lat=%s/optimized", lat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Evaluate(env.OptimizedPushdownQuery(loc), env.Relations, env.Registry, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-4: continuous-query tick cost vs window size.

func BenchmarkWindowSweep(b *testing.B) {
	const rate = 50
	for _, w := range []int64{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			reg := service.NewRegistry()
			exec := cq.NewExecutor(reg)
			events := stream.NewInfinite(bench.FeedLikeStreamSchema("events"))
			if err := exec.AddRelation(events); err != nil {
				b.Fatal(err)
			}
			seq := 0
			exec.AddSource(func(at service.Instant) error {
				for i := 0; i < rate; i++ {
					seq++
					if err := events.Insert(at, value.Tuple{
						value.NewInt(int64(seq)), value.NewString("p"),
					}); err != nil {
						return err
					}
				}
				return nil
			})
			if _, err := exec.Register("w", query.NewWindow(query.NewBase("events"), w)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-5: discovery scalability — time to register n services from TCP nodes.

func BenchmarkDiscovery(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("services=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bus := discovery.NewInProcBus()
				central := service.NewRegistry()
				if err := central.RegisterPrototype(device.GetTemperatureProto()); err != nil {
					b.Fatal(err)
				}
				node := discovery.NewNode("node", bus)
				if err := node.Registry().RegisterPrototype(device.GetTemperatureProto()); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if err := node.Registry().Register(device.NewSensor(fmt.Sprintf("s%05d", j), "lab", 20)); err != nil {
						b.Fatal(err)
					}
				}
				m := discovery.NewManager(central, bus)
				m.Start()
				b.StartTimer()
				if err := node.Start("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				for len(central.Refs()) < n {
					time.Sleep(200 * time.Microsecond)
				}
				b.StopTimer()
				_ = node.Stop()
				m.Stop()
				b.StartTimer()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-6: remote invocation over TCP vs in-process, per payload size.

func BenchmarkWireInvocation(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		reg := service.NewRegistry()
		proto := schema.MustPrototype("getBlob", nil,
			schema.MustRel(schema.Attribute{Name: "blob", Type: value.Blob}), false)
		if err := reg.RegisterPrototype(proto); err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, size)
		if err := reg.Register(service.NewFunc("blobber", map[string]service.InvokeFunc{
			"getBlob": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				return []value.Tuple{{value.NewBlob(payload)}}, nil
			},
		})); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("local/payload=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reg.Invoke("getBlob", "blobber", nil, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("remote/payload=%d", size), func(b *testing.B) {
			srv := wire.NewServer("node", reg)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			client, err := wire.Dial(addr, 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke("getBlob", "blobber", nil, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-7: hybrid query throughput per environment size.

func BenchmarkHybrid(b *testing.B) {
	for _, n := range []int{100, 1000} {
		env := bench.MustGenerate(bench.Config{Sensors: n, Cameras: 10, Contacts: 20, Locations: 10, Seed: 1})
		q := env.HybridQuery(env.Locations[0], 10)
		b.Run(fmt.Sprintf("sensors=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Evaluate(q, env.Relations, env.Registry, service.Instant(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation A-1/A-4: per-instant memoization of passive invocations.

func BenchmarkInstantMemo(b *testing.B) {
	env := bench.MustGenerate(bench.Config{Sensors: 50, Cameras: 1, Contacts: 1, Locations: 1, Seed: 1})
	// Duplicate every sensor row 4× under alias locations.
	var rows []value.Tuple
	for _, tu := range env.Relations["sensors"].Tuples() {
		for d := 0; d < 4; d++ {
			rows = append(rows, value.Tuple{tu[0], value.NewString(fmt.Sprintf("alias%d", d))})
		}
	}
	dup := algebra.MustNew(env.Relations["sensors"].Schema(), rows)
	relations := query.MapEnv{"sensors": dup}
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")

	b.Run("memo=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := query.NewContext(relations, env.Registry, service.Instant(i))
			if _, err := q.Eval(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := query.NewContext(relations, env.Registry, service.Instant(i))
			ctx.Memo = nil
			if _, err := q.Eval(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation A-2: incremental (semi-naive) tick evaluation vs the naive
// re-evaluate-then-diff path, across window sizes. Both arms run the SAME
// workload through the continuous executor — a windowed β-invocation plan
// over a reading stream with a fixed churn of 8 fresh tuples per tick — so
// the only difference is the evaluator: naive touches all n window rows
// every instant (n §4.2 cache consults + full re-diff), delta touches the
// ~2·churn changed rows. `make bench-check` fails if delta is not strictly
// faster at every size (cmd/benchfmt -faster).

func BenchmarkDeltaInvocation(b *testing.B) {
	const churn = 8 // fresh readings per instant; n is the window content
	sizes := []struct {
		label string
		n     int
	}{{"64", 64}, {"1k", 1024}, {"16k", 16384}}
	for _, mode := range []string{"naive", "delta"} {
		for _, sz := range sizes {
			b.Run(mode+"/n="+sz.label, func(b *testing.B) {
				benchDeltaSweep(b, sz.n, churn, mode == "naive")
			})
		}
	}
}

func benchDeltaSweep(b *testing.B, n, churn int, naive bool) {
	env := bench.MustGenerate(bench.Config{Sensors: 16, Cameras: 1, Contacts: 1, Locations: 4, Seed: 1})
	readings := stream.NewInfinite(schema.MustExtended("readings", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "location", Type: value.String}},
		{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}, Virtual: true},
	}, []schema.BindingPattern{{Proto: device.GetTemperatureProto(), ServiceAttr: "sensor"}}))
	exec := cq.NewExecutor(env.Registry)
	if err := exec.AddRelation(readings); err != nil {
		b.Fatal(err)
	}
	period := int64(n / churn)
	seq := 0
	feed := func(at service.Instant) {
		for j := 0; j < churn; j++ {
			ref := fmt.Sprintf("sensor%04d", seq%16)
			err := readings.Insert(at, value.Tuple{
				value.NewService(ref),
				value.NewString(fmt.Sprintf("r%07d", seq)),
			})
			if err != nil {
				b.Fatal(err)
			}
			seq++
		}
	}
	// Pre-fill one full window of history so the first timed tick already
	// carries n rows, then park the clock just before it.
	for at := int64(0); at < period; at++ {
		feed(service.Instant(at))
	}
	exec.AdvanceTo(service.Instant(period - 1))
	q, err := exec.Register("t",
		query.NewInvoke(query.NewWindow(query.NewBase("readings"), period), "getTemperature", ""))
	if err != nil {
		b.Fatal(err)
	}
	if naive {
		if err := exec.SetNaiveEvaluation("t", true); err != nil {
			b.Fatal(err)
		}
	} else if got := q.EvaluationMode(); got != "delta" {
		b.Fatalf("evaluation mode = %q, want delta", got)
	}
	tick := func() {
		feed(exec.Now() + 1)
		if _, err := exec.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	// Two warm-up ticks: the first pays the one-off window build (delta
	// re-init) and the physical invocations that seed the §4.2 cache.
	tick()
	tick()
	if got := q.LastResult().Len(); got != n {
		b.Fatalf("steady window carries %d rows, want %d", got, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(q.Stats().Passive)/float64(b.N+2), "invocations/tick")
}

// ---------------------------------------------------------------------------
// Materialized fan-in: N readers over ONE materialized derived relation
// (REGISTER QUERY … INTO) vs N readers each re-evaluating the same windowed
// selection for themselves. The producer's per-tick (inserts, deletes) feed
// every consumer's delta directly, so the windowed scan is paid once per
// tick instead of once per reader. `make bench-check` fails if the
// materialized arm is not strictly faster at every fan-in width
// (cmd/benchfmt -faster).

func BenchmarkMaterializedFanIn(b *testing.B) {
	for _, mode := range []string{"reeval", "materialized"} {
		for _, n := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				benchFanIn(b, n, mode == "materialized")
			})
		}
	}
}

func benchFanIn(b *testing.B, readers int, materialized bool) {
	const (
		churn  = 16 // fresh events per instant
		period = 64 // window the shared selection scans
	)
	reg := service.NewRegistry()
	exec := cq.NewExecutor(reg)
	events := stream.NewInfinite(bench.FeedLikeStreamSchema("events"))
	if err := exec.AddRelation(events); err != nil {
		b.Fatal(err)
	}
	seq := 0
	feed := func(at service.Instant) {
		for j := 0; j < churn; j++ {
			seq++
			err := events.Insert(at, value.Tuple{
				value.NewInt(int64(seq)), value.NewString(fmt.Sprintf("p%02d", seq%16)),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	// The downsample shape INTO exists for: the windowed scan touches every
	// event, the selection keeps a small fraction (2 of 16 payload classes),
	// and readers consume the compact derived relation.
	shared := func() query.Node {
		return query.NewSelect(
			query.NewWindow(query.NewBase("events"), period),
			algebra.Compare(algebra.Attr("payload"), algebra.Contains, algebra.Const(value.NewString("3"))))
	}
	if materialized {
		if _, err := exec.RegisterWith("producer", shared(), cq.RegisterOptions{Into: "hotmat", Retain: 4}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < readers; i++ {
		var plan query.Node
		if materialized {
			plan = query.NewProject(query.NewBase("hotmat"), "id")
		} else {
			plan = query.NewProject(shared(), "id")
		}
		q, err := exec.Register(fmt.Sprintf("reader%02d", i), plan)
		if err != nil {
			b.Fatal(err)
		}
		if got := q.EvaluationMode(); got != "delta" {
			b.Fatalf("reader mode = %q, want delta", got)
		}
	}
	// Warm up past the window build so the timed region is the steady state.
	for i := 0; i < 2; i++ {
		feed(exec.Now() + 1)
		if _, err := exec.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(exec.Now() + 1)
		if _, err := exec.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Durability A/B: continuous-query tick throughput with no WAL at all and
// with the WAL at each fsync policy, over the BenchmarkDeltaInvocation
// workload. The budget is <=5% overhead for -fsync interval over the
// no-durability baseline (fsyncs amortize across the 200ms sync window);
// the always row shows the full per-commit fsync cost, the off row
// isolates pure record encoding and buffered writes.

func BenchmarkDurableTick(b *testing.B) {
	const sensors = 100
	run := func(b *testing.B, fsync string) {
		env := bench.MustGenerate(bench.Config{Sensors: sensors, Cameras: 1, Contacts: 1, Locations: 1, Seed: 1})
		exec := cq.NewExecutor(env.Registry)
		rel := stream.NewFinite(env.Relations["sensors"].Schema())
		for _, tu := range env.Relations["sensors"].Tuples() {
			if err := rel.Insert(0, tu); err != nil {
				b.Fatal(err)
			}
		}
		if err := exec.AddRelation(rel); err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Register("t", query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")); err != nil {
			b.Fatal(err)
		}
		if fsync != "" {
			pol, err := wal.ParseSyncPolicy(fsync)
			if err != nil {
				b.Fatal(err)
			}
			// Checkpoints are benchmarked implicitly by the executor's
			// OnCheckpoint path in real deployments; here they are pushed out
			// of the measured window so the rows isolate per-tick log cost.
			m, err := wal.Open(b.TempDir(), wal.Options{Fsync: pol, CheckpointEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			exec.SetDurability(m)
			if _, err := m.Recover(wal.RecoveryHooks{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Tick(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, mode := range []struct{ name, fsync string }{
		{"none", ""},
		{"wal-off", "off"},
		{"wal-interval", "interval"},
		{"wal-always", "always"},
	} {
		b.Run("durability="+mode.name, func(b *testing.B) { run(b, mode.fsync) })
	}
}

// ---------------------------------------------------------------------------
// Ablation A-3: action-set capture overhead — evaluating an active query
// (capture on the hot path) vs a passive query of the same shape.

func BenchmarkActionSetOverhead(b *testing.B) {
	reg, dev := paperenv.MustRegistry()
	env := query.MapEnv{
		"contacts": paperenv.Contacts(),
		"sensors":  paperenv.Sensors(),
	}
	active := query.NewInvoke(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("x")),
		"sendMessage", "")
	passive := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	b.Run("active-with-actions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Evaluate(active, env, reg, service.Instant(i)); err != nil {
				b.Fatal(err)
			}
		}
		dev.Messengers["email"].Reset()
		dev.Messengers["jabber"].Reset()
	})
	b.Run("passive-no-actions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Evaluate(passive, env, reg, service.Instant(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation A-1: eager BP propagation (schema derivation) cost — planning a
// Table 4-style query repeatedly.

func BenchmarkBPPropagation(b *testing.B) {
	env := query.MapEnv{
		"contacts": paperenv.Contacts(),
		"cameras":  paperenv.Cameras(),
	}
	q, err := sal.Parse(`project[photo](invoke[takePhoto](select[quality >= 5](invoke[checkPhoto](select[area = "office"](cameras)))))`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plan-schema-derivation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.ResultSchema(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// B-8: parallel invocation speedup under latency (Section 5.1 asynchronous
// invocation handling).

func BenchmarkParallelInvocation(b *testing.B) {
	env := bench.MustGenerate(bench.Config{
		Sensors: 32, Cameras: 1, Contacts: 1, Locations: 1,
		ServiceLatency: time.Millisecond, Seed: 1,
	})
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := query.NewContext(env.Relations, env.Registry, service.Instant(i))
				ctx.Parallelism = workers
				if _, err := query.EvaluateCtx(q, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Aggregation throughput (the Section 1.2 mean-per-location extension).

func BenchmarkAggregate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		sch := schema.MustExtended("readings", []schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
			{Attribute: schema.Attribute{Name: "location", Type: value.String}},
			{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}},
		}, nil)
		rows := make([]value.Tuple, n)
		for i := 0; i < n; i++ {
			rows[i] = value.Tuple{
				value.NewService(fmt.Sprintf("s%05d", i)),
				value.NewString(fmt.Sprintf("loc%02d", i%20)),
				value.NewReal(float64(i % 37)),
			}
		}
		r := algebra.MustNew(sch, rows)
		aggs := []algebra.AggSpec{
			{Func: algebra.Mean, Attr: "temperature", As: "avg"},
			{Func: algebra.Count, As: "n"},
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Aggregate(r, []string{"location"}, aggs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Serena SQL compilation cost (parse + conjunct placement + validation).

func BenchmarkSSQLCompile(b *testing.B) {
	env := query.MapEnv{
		"contacts": paperenv.Contacts(),
		"cameras":  paperenv.Cameras(),
	}
	const src = `SELECT photo FROM cameras USING checkPhoto, takePhoto
		WHERE area = "office" AND quality >= 5`
	for i := 0; i < b.N; i++ {
		if _, err := ssql.Compile(src, env); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Optimizer planning cost (logical rewriting itself).

func BenchmarkOptimizerPlanning(b *testing.B) {
	env := bench.MustGenerate(bench.Config{Sensors: 100, Cameras: 10, Contacts: 10, Locations: 10, Seed: 1})
	opt := optimizer.New(rewrite.DefaultRules(), optimizer.EnvStats{Env: env.Relations}, optimizer.DefaultCostModel())
	q := env.NaivePushdownQuery(env.Locations[0])
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(q, env.Relations); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched invocation pipeline: one remote service invoked with n distinct
// inputs. Per-tuple dispatch pays one wire round trip per tuple; grouping
// packs the whole fan-out into BatchSize-bounded frames. The ≥2x
// win at n ≥ 16 is the acceptance bar for the batching tentpole.

func BenchmarkInvokeBatch(b *testing.B) {
	proto := schema.MustPrototype("lookup",
		schema.MustRel(schema.Attribute{Name: "id", Type: value.Int}),
		schema.MustRel(schema.Attribute{Name: "val", Type: value.Real}), false)
	remoteReg := service.NewRegistry()
	if err := remoteReg.RegisterPrototype(proto); err != nil {
		b.Fatal(err)
	}
	err := remoteReg.Register(service.NewFunc("lut", map[string]service.InvokeFunc{
		"lookup": func(in value.Tuple, _ service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewReal(float64(in[0].Int()))}}, nil
		},
	}))
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer("node", remoteReg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	_, infos, err := client.Describe()
	if err != nil {
		b.Fatal(err)
	}
	local := service.NewRegistry()
	if err := local.RegisterPrototype(proto); err != nil {
		b.Fatal(err)
	}
	for _, info := range infos {
		if err := local.Register(wire.NewRemote(client, info)); err != nil {
			b.Fatal(err)
		}
	}

	sch := schema.MustExtended("items", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "svc", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "id", Type: value.Int}},
		{Attribute: schema.Attribute{Name: "val", Type: value.Real}, Virtual: true},
	}, []schema.BindingPattern{{Proto: proto, ServiceAttr: "svc"}})

	for _, n := range []int{4, 16, 64} {
		rows := make([]value.Tuple, n)
		for i := 0; i < n; i++ {
			rows[i] = value.Tuple{value.NewService("lut"), value.NewInt(int64(i))}
		}
		env := query.MapEnv{"items": algebra.MustNew(sch, rows)}
		q := query.NewInvoke(query.NewBase("items"), "lookup", "")
		run := func(b *testing.B, batchSize int) {
			for i := 0; i < b.N; i++ {
				ctx := query.NewContext(env, local, service.Instant(i))
				ctx.BatchSize = batchSize
				if _, err := query.EvaluateCtx(q, ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("pertuple/n=%d", n), func(b *testing.B) { run(b, -1) })
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) { run(b, 0) })
	}
}

// ---------------------------------------------------------------------------
// O-1: self-telemetry overhead. The identical continuous workload — a
// windowed selection over a stream fed 8 fresh readings per instant — is
// ticked with the health scraper off vs on at the default interval (scrape
// every instant). The scraper's budget is ≤5% per-tick overhead: it samples
// the metrics registry, runs the per-query and per-stream health state
// machines, and reconciles the three sys$ relations, all off the query
// evaluation path. The scraper gets its own registry carrying a fixed
// synthetic metric population (bumped per tick in both modes) so the
// measurement is hermetic: scraping the process-global obs.Default would
// make the number depend on whichever benchmarks ran earlier.

func BenchmarkTickTelemetryOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run("telemetry="+mode, func(b *testing.B) { benchTelemetryTick(b, mode == "on") })
	}
}

func benchTelemetryTick(b *testing.B, telemetry bool) {
	env := bench.MustGenerate(bench.Config{Sensors: 16, Cameras: 1, Contacts: 1, Locations: 4, Seed: 1})
	readings := stream.NewInfinite(schema.MustExtended("readings", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}},
	}, nil))
	// A fixed metric population on the scraper's dedicated registry, sized
	// like a busy engine: 40 counters, 20 gauges, 6 histograms.
	reg := obs.New()
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("bench.counter%02d", i)).Inc()
	}
	for i := 0; i < 20; i++ {
		reg.Gauge(fmt.Sprintf("bench.gauge%02d", i)).Set(int64(i))
	}
	for i := 0; i < 6; i++ {
		reg.Histogram(fmt.Sprintf("bench.hist%d", i)).Observe(1000)
	}
	exec := cq.NewExecutor(env.Registry)
	if telemetry {
		if _, err := exec.EnableSelfTelemetry(cq.TelemetryOptions{Registry: reg}); err != nil {
			b.Fatal(err)
		}
	}
	if err := exec.AddRelation(readings); err != nil {
		b.Fatal(err)
	}
	seq := 0
	exec.AddSource(func(at service.Instant) error {
		// Churn a subset of the registry every tick (identical work in both
		// modes) so the scraper's change-stream has rows to emit.
		for j := 0; j < 8; j++ {
			reg.Counter(fmt.Sprintf("bench.counter%02d", (seq+j)%40)).Inc()
		}
		for j := 0; j < 4; j++ {
			reg.Gauge(fmt.Sprintf("bench.gauge%02d", (seq+j)%20)).Set(int64(seq + j))
		}
		reg.Histogram("bench.hist0").Observe(time.Duration(1000 + seq%1000))
		for j := 0; j < 8; j++ {
			ref := fmt.Sprintf("sensor%04d", seq%16)
			err := readings.Insert(at, value.Tuple{
				value.NewService(ref), value.NewReal(float64(seq % 40)),
			})
			if err != nil {
				return err
			}
			seq++
		}
		return nil
	})
	_, err := exec.Register("hot", query.NewSelect(
		query.NewWindow(query.NewBase("readings"), 64),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(30)))))
	if err != nil {
		b.Fatal(err)
	}
	// Warm up past the window build and the scraper's first full reconcile.
	for i := 0; i < 2; i++ {
		if _, err := exec.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}
