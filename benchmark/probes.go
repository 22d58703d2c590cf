package main

import (
	"context"
	"os"
	"runtime"
	"time"

	"serena/internal/algebra"
	"serena/internal/ddl"
	"serena/internal/obs"
	"serena/internal/optimizer"
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

// A layer probe times one public function of one layer on generated
// inputs, outside any workload. Each probe belongs to the workload whose
// end-to-end metrics it should move and runs at the end of that workload's
// traced run; in the other workloads' traced runs its metric reads 0.

const probeSeconds = 0.5

// probeResult is the mean cost of one iteration.
type probeResult struct {
	ns     float64
	allocs float64
	iters  int
}

// batchFn performs n iterations of the probed call and returns the time to
// charge for them.
type batchFn func(n int) time.Duration

// each is the batch of a probe that times n plain calls of f.
func each(f func(i int)) batchFn {
	return func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return time.Since(start)
	}
}

// runProbe runs one batch to warm up and then batches until probeSeconds
// of wall time have been measured.
func runProbe(n int, batch batchFn) probeResult {
	batch(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var charged time.Duration
	iters := 0
	for start := time.Now(); time.Since(start).Seconds() < probeSeconds; iters += n {
		charged += batch(n)
	}
	runtime.ReadMemStats(&after)
	return probeResult{
		ns:     float64(charged.Nanoseconds()) / float64(iters),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(iters),
		iters:  iters,
	}
}

// probe describes one probe: the metric it reports in the given unit, and
// optionally the metric that receives its allocations per iteration.
type probe struct {
	metric, allocMetric string
	perNS               float64 // 1 for ns, 1e3 for us
	batch               int
	setup               probeSetup
}

type probeSetup func(seed uint64, dir string) (batch batchFn, cleanup func(), err error)

// runProbes runs the probes that belong to the workload.
func runProbes(r *run, workload string) {
	for _, p := range probesOf[workload] {
		dir := r.dataDir("probe")
		batch, cleanup, err := p.setup(r.cfg.seed, dir)
		if err != nil {
			r.fail("probe %s: %v", p.metric, err)
			continue
		}
		res := runProbe(p.batch, batch)
		cleanup()
		os.RemoveAll(dir)
		r.setLayer(p.metric, res.ns/p.perNS, res.iters)
		if p.allocMetric != "" {
			r.setLayer(p.allocMetric, res.allocs, res.iters)
		}
	}
}

// check stops a probe whose probed call failed: its inputs are generated
// here, so an error is a bug in the probe or the engine, not a measurement.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// sink keeps probed results alive so the calls cannot be optimised away.
var sink any

func noCleanup() {}

var readingsSchema = schema.MustExtended("temperatures", []schema.ExtAttr{
	{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
	{Attribute: schema.Attribute{Name: "location", Type: value.String}},
	{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}},
}, nil)

// probeReadings generates n distinct reading tuples over 512 sensors.
func probeReadings(seed uint64, n int) []value.Tuple {
	rng := splitmix64{state: seed ^ 0x70726f6265}
	out := make([]value.Tuple, n)
	for i := range out {
		s := i % 512
		q := baseTemp(s%numLocations) + int32(rng.next()%(12*tempQuantum))
		out[i] = value.Tuple{value.NewService(sensorRef(s)), value.NewString(locName(s % numLocations)), value.NewReal(quantTemp(q) + float64(i/512)*1e-6)}
	}
	return out
}

func readingsRelation(seed uint64, n int) *algebra.XRelation {
	return algebra.MustNew(readingsSchema, probeReadings(seed, n))
}

var placesSchema = schema.MustExtended("places", []schema.ExtAttr{
	{Attribute: schema.Attribute{Name: "location", Type: value.String}},
	{Attribute: schema.Attribute{Name: "floor", Type: value.Int}},
}, nil)

func placesRelation() *algebra.XRelation {
	var rows []value.Tuple
	for l := 0; l < numLocations; l++ {
		rows = append(rows, value.Tuple{value.NewString(locName(l)), value.NewInt(int64(l / 8))})
	}
	return algebra.MustNew(placesSchema, rows)
}

var hotFormula = algebra.Compare(algebra.Attr("temperature"), mustCmp(">"), algebra.Const(value.NewReal(28)))

func mustCmp(s string) algebra.CmpOp {
	op, ok := algebra.CmpOpFromString(s)
	if !ok {
		panic("unknown comparison " + s)
	}
	return op
}

var meanByLocation = []algebra.AggSpec{{Func: algebra.Mean, Attr: "temperature", As: "avgtemp"}}

// deltaChurn feeds a delta operator the steady state of window_churn: a
// 4 096-tuple state into which every step brings 16 tuples and drops the 16
// oldest.
type deltaChurn struct {
	tuples []value.Tuple
	next   int
}

const (
	churnState = 4096
	churnStep  = 16
)

func (c *deltaChurn) initial() algebra.Delta {
	c.next = churnState
	return algebra.Delta{Ins: c.tuples[:churnState]}
}

func (c *deltaChurn) exhausted() bool { return c.next+churnStep > len(c.tuples) }

func (c *deltaChurn) step() algebra.Delta {
	d := algebra.Delta{Ins: c.tuples[c.next : c.next+churnStep], Del: c.tuples[c.next-churnState : c.next-churnState+churnStep]}
	c.next += churnStep
	return d
}

// deltaProbe times one Apply of a delta operator per iteration. newOp
// returns a fresh operator's Apply; the operator is rebuilt (and charged
// for it, once per 4 096 steps) when the generated tuples run out.
func deltaProbe(newOp func() func(algebra.Delta) error) probeSetup {
	return func(seed uint64, _ string) (batchFn, func(), error) {
		c := &deltaChurn{tuples: probeReadings(seed, churnState+1<<16)}
		var apply func(algebra.Delta) error
		return each(func(int) {
			if apply == nil || c.exhausted() {
				apply = newOp()
				check(apply(c.initial()))
			}
			check(apply(c.step()))
		}), noCleanup, nil
	}
}

const probeHybridSAL = `join(invoke[getTemperature](sensors), rename[area -> location](invoke[checkPhoto](cameras)))`

// probeEnv is a 1 000-sensor one-shot environment over local stubs.
func probeEnv(seed uint64) (query.MapEnv, *service.Registry, error) {
	reg := service.NewRegistry()
	if err := registerPrototypes(reg); err != nil {
		return nil, nil, err
	}
	st := &stubs{seed: seed}
	for _, s := range st.services(1000, numLocations, 2) {
		if err := reg.Register(s); err != nil {
			return nil, nil, err
		}
	}
	protos := map[string]*schema.Prototype{}
	for _, p := range prototypes() {
		protos[p.Name] = p
	}
	sensors := schema.MustExtended("sensors", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "location", Type: value.String}},
		{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}, Virtual: true},
	}, []schema.BindingPattern{{Proto: protos["getTemperature"], ServiceAttr: "sensor"}})
	cameras := schema.MustExtended("cameras", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "camera", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "area", Type: value.String}},
		{Attribute: schema.Attribute{Name: "quality", Type: value.Int}, Virtual: true},
		{Attribute: schema.Attribute{Name: "delay", Type: value.Real}, Virtual: true},
	}, []schema.BindingPattern{{Proto: protos["checkPhoto"], ServiceAttr: "camera"}})
	var srows, crows []value.Tuple
	for i := 0; i < 1000; i++ {
		srows = append(srows, value.Tuple{value.NewService(sensorRef(i)), value.NewString(locName(i % numLocations))})
	}
	for l := 0; l < numLocations; l++ {
		crows = append(crows, value.Tuple{value.NewService(cameraRef(l)), value.NewString(locName(l))})
	}
	env := query.MapEnv{
		"sensors": algebra.MustNew(sensors, srows),
		"cameras": algebra.MustNew(cameras, crows),
	}
	return env, reg, nil
}

// envProbe builds probeEnv and times body on it.
func envProbe(body func(env query.MapEnv, reg *service.Registry) func(i int)) probeSetup {
	return func(seed uint64, _ string) (batchFn, func(), error) {
		env, reg, err := probeEnv(seed)
		if err != nil {
			return nil, nil, err
		}
		return each(body(env, reg)), noCleanup, nil
	}
}

// plainProbe times body with nothing to set up or clean.
func plainProbe(body func(seed uint64) func(i int)) probeSetup {
	return func(seed uint64, _ string) (batchFn, func(), error) { return each(body(seed)), noCleanup, nil }
}

// wireProbe serves one sensor and one camera stub on loopback and times
// call on a client of that server; the instant grows with every call.
func wireProbe(call func(c *wire.Client, at service.Instant) error) probeSetup {
	return func(seed uint64, _ string) (batchFn, func(), error) {
		reg := service.NewRegistry()
		if err := registerPrototypes(reg); err != nil {
			return nil, nil, err
		}
		st := &stubs{seed: seed}
		for _, s := range st.services(1, 1, 0) {
			if err := reg.Register(s); err != nil {
				return nil, nil, err
			}
		}
		srv := wire.NewServer("probe", reg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		client, err := wire.Dial(addr, 2*time.Second)
		if err != nil {
			_ = srv.Close()
			return nil, nil, err
		}
		var at service.Instant
		batch := each(func(int) {
			at++
			check(call(client, at))
		})
		return batch, func() {
			_ = client.Close()
			_ = srv.Close()
		}, nil
	}
}

// walProbe opens a fresh WAL manager under the given fsync policy.
func walProbe(policy wal.SyncPolicy, body func(m *wal.Manager, seed uint64) batchFn) probeSetup {
	return func(seed uint64, dir string) (batchFn, func(), error) {
		m, err := wal.Open(dir, wal.Options{Fsync: policy})
		if err != nil {
			return nil, nil, err
		}
		if _, err := m.Recover(wal.RecoveryHooks{}); err != nil {
			_ = m.Close()
			return nil, nil, err
		}
		return body(m, seed), func() { _ = m.Close() }, nil
	}
}

// fillWindows times Insert while filling 128-instant windows of 32
// readings, as window_churn's warm-up does: a batch of 4 096 iterations
// starts a new stream, which attach sees before its first insert.
func fillWindows(seed uint64, attach func(*stream.XDRelation)) batchFn {
	tuples := probeReadings(seed, churnState)
	var x *stream.XDRelation
	return each(func(i int) {
		if i == 0 {
			x = stream.NewInfinite(readingsSchema)
			attach(x)
		}
		check(x.Insert(service.Instant(i/churnPerInstant), tuples[i%len(tuples)]))
	})
}

// planSAL is the selection-above-β text the planning probes plan.
const planSAL = `select[location = "loc07"](invoke[getTemperature](sensors))`

var probesOf = map[string][]probe{
	"surveillance": {
		{metric: "wal.append_ns_per_event", perNS: 1, batch: churnState, setup: walProbe(wal.SyncOff, func(m *wal.Manager, seed uint64) batchFn {
			// stream.insert_ns with the relation attached to the log: the
			// difference between the two is what logging adds to an event.
			return fillWindows(seed, m.AttachRelation)
		})},
		{metric: "wal.commit_us_interval", perNS: 1e3, batch: 256, setup: walProbe(wal.SyncInterval, func(m *wal.Manager, _ uint64) batchFn {
			var at service.Instant
			return each(func(int) {
				at++
				check(m.BeginTick(at))
				_, err := m.CommitTick(at)
				check(err)
			})
		})},
		{metric: "obs.counter_inc_ns", perNS: 1, batch: 1 << 16, setup: plainProbe(func(uint64) func(int) {
			c := obs.New().Counter("probe.counter")
			return func(int) { c.Inc() }
		})},
		{metric: "obs.histogram_observe_ns", perNS: 1, batch: 1 << 16, setup: plainProbe(func(uint64) func(int) {
			h := obs.New().Histogram("probe.histogram")
			return func(i int) { h.Observe(time.Duration(i)) }
		})},
		{metric: "trace.span_ns_unsampled", perNS: 1, batch: 1 << 16, setup: plainProbe(func(uint64) func(int) {
			// A tracer that samples one root in 2^40: every site takes the
			// unsampled path — root decision, child, attribute, finish.
			tr := trace.New(64, 1<<40)
			return func(i int) {
				root := tr.StartRoot("probe")
				child := root.Child("probe.child")
				child.SetAttrInt("i", int64(i))
				child.Finish()
				root.Finish()
			}
		})},
		{metric: "ddl.parse_us", perNS: 1e3, batch: 64, setup: plainProbe(func(uint64) func(int) {
			src := tablesDDL + survStreamDDL + survQueriesDDL
			return func(int) {
				stmts, err := ddl.Parse(src)
				check(err)
				sink = stmts
			}
		})},
	},
	"remote_beta": {
		{metric: "wire.invoke_us", allocMetric: "wire.invoke_allocs", perNS: 1e3, batch: 512, setup: wireProbe(func(c *wire.Client, at service.Instant) error {
			_, err := c.Invoke("getTemperature", sensorRef(0), nil, at)
			return err
		})},
		{metric: "wire.invoke_us_blob4k", perNS: 1e3, batch: 512, setup: wireProbe(func(c *wire.Client, at service.Instant) error {
			_, err := c.Invoke("takePhoto", cameraRef(0), value.Tuple{value.NewString(locName(0)), value.NewInt(5)}, at)
			return err
		})},
		{metric: "wire.batch16_us", perNS: 1e3, batch: 128, setup: wireProbe(func(c *wire.Client, at service.Instant) error {
			inputs := make([]value.Tuple, 16)
			for k := range inputs {
				inputs[k] = value.Tuple{value.NewString(locName(k))}
			}
			for _, res := range c.InvokeBatchCtx(context.Background(), "checkPhoto", cameraRef(0), inputs, at) {
				if res.Err != nil {
					return res.Err
				}
			}
			return nil
		})},
	},
	"window_churn": {
		{metric: "stream.insert_ns", perNS: 1, batch: churnState, setup: func(seed uint64, _ string) (batchFn, func(), error) {
			return fillWindows(seed, func(*stream.XDRelation) {}), noCleanup, nil
		}},
		{metric: "stream.events_in_us_n4k", perNS: 1e3, batch: 4096, setup: func(seed uint64, _ string) (batchFn, func(), error) {
			// What one window[128] tick reads from a 4 160-event log: the
			// instant that entered and the instant that left.
			x := stream.NewInfinite(readingsSchema)
			const instants = churnWindow + 2
			for i, t := range probeReadings(seed, instants*churnPerInstant) {
				if err := x.Insert(service.Instant(i/churnPerInstant), t); err != nil {
					return nil, nil, err
				}
			}
			const at = service.Instant(instants - 1)
			return each(func(int) {
				sink = x.InsertedIn(at-1, at)
				sink = x.InsertedIn(at-churnWindow-1, at-churnWindow)
			}), noCleanup, nil
		}},
		{metric: "value.key_ns", allocMetric: "value.key_allocs", perNS: 1, batch: 1 << 14, setup: plainProbe(func(seed uint64) func(int) {
			tuples := probeReadings(seed, 1024)
			return func(i int) { sink = tuples[i%len(tuples)].Key() }
		})},
		{metric: "algebra.delta_join_us_c16_n4k", perNS: 1e3, batch: 256, setup: deltaProbe(func() func(algebra.Delta) error {
			j, err := algebra.NewDeltaJoin(readingsSchema, placesSchema)
			check(err)
			right := algebra.Delta{Ins: placesRelation().Tuples()}
			return func(d algebra.Delta) error {
				out, err := j.Apply(d, right)
				right = algebra.Delta{} // the places arrive once, with the initial state
				sink = out
				return err
			}
		})},
		{metric: "algebra.delta_aggregate_us_c16_n4k", perNS: 1e3, batch: 32, setup: deltaProbe(func() func(algebra.Delta) error {
			a, err := algebra.NewDeltaAggregate(readingsSchema, []string{"location"}, meanByLocation)
			check(err)
			return func(d algebra.Delta) error {
				out, err := a.Apply(d)
				sink = out
				return err
			}
		})},
		{metric: "algebra.delta_select_us_c16_n4k", perNS: 1e3, batch: 4096, setup: deltaProbe(func() func(algebra.Delta) error {
			s, err := algebra.NewDeltaSelect(readingsSchema, hotFormula)
			check(err)
			return func(d algebra.Delta) error {
				out, err := s.Apply(d)
				sink = out
				return err
			}
		})},
	},
	"oneshot": {
		{metric: "algebra.select_us_n1k", perNS: 1e3, batch: 64, setup: plainProbe(func(seed uint64) func(int) {
			r := readingsRelation(seed, 1000)
			return func(int) {
				out, err := algebra.Select(r, hotFormula)
				check(err)
				sink = out
			}
		})},
		{metric: "algebra.join_us_n1k", allocMetric: "algebra.join_allocs_n1k", perNS: 1e3, batch: 16, setup: plainProbe(func(seed uint64) func(int) {
			r, places := readingsRelation(seed, 1000), placesRelation()
			return func(int) {
				out, err := algebra.NaturalJoin(r, places)
				check(err)
				sink = out
			}
		})},
		{metric: "algebra.aggregate_us_n1k", allocMetric: "algebra.aggregate_allocs_n1k", perNS: 1e3, batch: 16, setup: plainProbe(func(seed uint64) func(int) {
			r := readingsRelation(seed, 1000)
			return func(int) {
				out, err := algebra.Aggregate(r, []string{"location"}, meanByLocation)
				check(err)
				sink = out
			}
		})},
		{metric: "service.invoke_ns", perNS: 1, batch: 4096, setup: envProbe(func(_ query.MapEnv, reg *service.Registry) func(int) {
			return func(i int) {
				rows, err := reg.Invoke("getTemperature", sensorRef(i%1000), nil, service.Instant(i))
				check(err)
				sink = rows
			}
		})},
		{metric: "query.evaluate_us_hybrid_n1k", perNS: 1e3, batch: 4, setup: envProbe(func(env query.MapEnv, reg *service.Registry) func(int) {
			plan, err := sal.Parse(probeHybridSAL)
			check(err)
			return func(i int) {
				res, err := query.Evaluate(plan, env, reg, service.Instant(i))
				check(err)
				sink = res
			}
		})},
		{metric: "sal.parse_us", perNS: 1e3, batch: 256, setup: plainProbe(func(uint64) func(int) {
			return func(int) {
				plan, err := sal.Parse(oneShotQueries[1].text)
				check(err)
				sink = plan
			}
		})},
		{metric: "ssql.compile_us", perNS: 1e3, batch: 256, setup: envProbe(func(env query.MapEnv, _ *service.Registry) func(int) {
			const src = `SELECT sensor, temperature FROM sensors USING getTemperature WHERE location = "loc05" AND temperature > 20.0;`
			return func(int) {
				st, err := ssql.Compile(src, env)
				check(err)
				sink = st
			}
		})},
		{metric: "optimizer.plan_us", perNS: 1e3, batch: 64, setup: envProbe(func(env query.MapEnv, _ *service.Registry) func(int) {
			plan, err := sal.Parse(planSAL)
			check(err)
			return func(int) {
				opt := optimizer.New(rewrite.DefaultRules(), optimizer.EnvStats{Env: env}, optimizer.DefaultCostModel())
				out, err := opt.Optimize(plan, env)
				check(err)
				sink = out
			}
		})},
		{metric: "rewrite.pushdown_us", perNS: 1e3, batch: 64, setup: envProbe(func(env query.MapEnv, _ *service.Registry) func(int) {
			plan, err := sal.Parse(planSAL)
			check(err)
			return func(int) {
				out, steps, err := rewrite.Apply(plan, env, rewrite.DefaultRules())
				check(err)
				if len(steps) == 0 {
					panic("rewrite probe: no rule applied to " + plan.String())
				}
				sink = out
			}
		})},
	},
}
