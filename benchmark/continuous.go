package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"serena/internal/cq"
	"serena/internal/pems"
	"serena/internal/query"
	"serena/internal/value"
)

// pusher turns one generated instant into the op of the push workloads:
// the instant's Offer calls followed by PEMS.Tick.
type pusher struct {
	core    *pems.PEMS
	load    *pushLoad
	rec     *recorder
	sensors []value.Value
	locs    []value.Value
	refused int
	// depthMax is the deepest the ingest buffer got (read on traced ops).
	depthMax int
}

func newPusher(core *pems.PEMS, load *pushLoad, rec *recorder) *pusher {
	p := &pusher{core: core, load: load, rec: rec}
	for s := 0; s < load.sensors; s++ {
		p.sensors = append(p.sensors, value.NewService(sensorRef(s)))
	}
	for l := 0; l < numLocations; l++ {
		p.locs = append(p.locs, value.NewString(locName(l)))
	}
	return p
}

func (p *pusher) offer(t int) {
	for _, rd := range p.load.instants[t] {
		tuple := value.Tuple{p.sensors[rd.sensor], p.locs[int(rd.sensor)%numLocations], value.NewReal(quantTemp(rd.temp))}
		if err := p.core.Offer("temperatures", tuple); err != nil {
			p.refused++
		}
	}
}

func (p *pusher) instant(t int) error {
	if !p.rec.enabled() {
		p.offer(t)
		_, err := p.core.Tick()
		return err
	}
	start := time.Now()
	root := p.rec.open("op", start, -1)
	p.offer(t)
	offered := time.Now()
	p.rec.add("stream.offer", start, offered, root)
	if x, ok := p.core.Executor().Relation("temperatures"); ok {
		p.depthMax = max(p.depthMax, x.IngestDepth())
	}
	err := tracedTick(p.core, p.rec, root)
	p.rec.close(root, time.Now())
	return err
}

// report adds what the pusher saw of the ingest buffer and the stream.
func (p *pusher) report(r *run) {
	r.failed += p.refused
	r.setLayer("stream.ingest_depth_max", float64(p.depthMax), r.traced)
	if x, ok := p.core.Executor().Relation("temperatures"); ok {
		r.setLayer("stream.retained_events_end", float64(x.EventCount()), 1)
	}
}

// tracedTick runs PEMS.Tick under a cq.tick span; the WAL decorator hangs
// its spans below it.
func tracedTick(core *pems.PEMS, rec *recorder, root int) error {
	start := time.Now()
	rec.tick = rec.open("cq.tick", start, root)
	_, err := core.Tick()
	rec.close(rec.tick, time.Now())
	return err
}

// tickProbe gathers the per-layer numbers of a continuous workload from
// outside the engine: the spans of the benchmark's own wrappers and the
// public accessors read after each traced op.
type tickProbe struct {
	r       *run
	core    *pems.PEMS
	dir     string // WAL directory, "" without durability
	queries []string

	ops         int              // traced ops observed
	evalNS      map[string]int64 // Σ Query.LastEvalLatency over traced ops
	stubNS      int64
	logBytes    int64
	lastLogSize int64

	checkpoints    int   // in the timed section, traced or not
	checkpointed   bool  // the current op wrote a checkpoint
	checkpointOps  []int // traced ops that did
	sectionStarted bool
	stats0         map[string]query.InvokeStats
	calls0         int64
}

// newTickProbe attaches the probe. In a traced run on a durable
// environment it wraps the engine's WAL manager in the timing decorator and
// replaces the checkpoint callback with one that times the same call.
func newTickProbe(r *run, core *pems.PEMS, dir string, queries []string) *tickProbe {
	tp := &tickProbe{r: r, core: core, dir: dir, queries: queries, evalNS: map[string]int64{}}
	if r.rec == nil || dir == "" {
		return tp
	}
	manager := core.WAL()
	core.Executor().SetDurability(&timedDurability{inner: manager, rec: r.rec})
	core.Executor().OnCheckpoint(func(st cq.CheckpointState) error {
		traced := r.rec.enabled()
		if traced {
			tp.logBytes += walLogSize(dir) - tp.lastLogSize
		}
		tp.lastLogSize = 0 // the checkpoint rotates the log
		start := time.Now()
		err := manager.Checkpoint(core.Catalog().DumpSchema(), st)
		if traced {
			r.rec.add("wal.checkpoint", start, time.Now(), r.rec.tick)
		}
		if tp.sectionStarted {
			tp.checkpoints++
			tp.checkpointed = true
		}
		return err
	})
	return tp
}

// startSection marks the end of warm-up: counters read as differences
// start from here.
func (tp *tickProbe) startSection() {
	tp.sectionStarted = true
	tp.stats0 = map[string]query.InvokeStats{}
	for _, name := range tp.queries {
		if q, ok := tp.core.Executor().Query(name); ok {
			tp.stats0[name] = q.Stats()
		}
	}
	if tp.r.stub != nil {
		tp.calls0 = tp.r.stub.totalCalls()
		tp.r.stub.busyNS.Store(0)
	}
	tp.lastLogSize = walLogSize(tp.dir)
}

// afterOp runs after every op. In a traced run it keeps the log size
// current and, after a traced op, reads the engine's public accessors.
func (tp *tickProbe) afterOp(i int, traced bool) {
	if tp.r.rec == nil {
		return
	}
	size := walLogSize(tp.dir)
	if traced {
		tp.ops++
		for _, name := range tp.queries {
			if q, ok := tp.core.Executor().Query(name); ok {
				tp.evalNS[name] += q.LastEvalLatency().Nanoseconds()
			}
		}
		if tp.r.stub != nil {
			tp.stubNS += tp.r.stub.busyNS.Swap(0)
		}
		tp.logBytes += size - tp.lastLogSize
		if tp.checkpointed {
			tp.checkpointOps = append(tp.checkpointOps, i)
		}
	}
	tp.lastLogSize = size
	tp.checkpointed = false
}

func walLogSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var size int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if info, err := e.Info(); err == nil {
				size += info.Size()
			}
		}
	}
	return size
}

// report turns what the probe saw into per-layer metrics.
func (tp *tickProbe) report() {
	r, queries := tp.r, tp.queries
	timed := float64(len(r.opMS))
	// Counts hold for every run, traced or not.
	var delta, naive int64
	var st query.InvokeStats
	for _, name := range queries {
		q, ok := tp.core.Executor().Query(name)
		if !ok {
			continue
		}
		d, n := q.EvalCounts()
		delta, naive = delta+d, naive+n
		s, s0 := q.Stats(), tp.stats0[name]
		addInvokeStats(&st, query.InvokeStats{
			Passive: s.Passive - s0.Passive, Active: s.Active - s0.Active,
			Memoized: s.Memoized - s0.Memoized, Coalesced: s.Coalesced - s0.Coalesced,
		})
	}
	if delta+naive > 0 {
		r.setLayer("cq.delta_tick_share", float64(delta)/float64(delta+naive), int(delta+naive))
	}
	reportInvokeStats(r, st, len(r.opMS))
	if r.stub != nil {
		r.setLayer("service.physical_calls_per_op", float64(r.stub.totalCalls()-tp.calls0)/timed, len(r.opMS))
	}
	if tp.dir != "" {
		if info, err := os.Stat(filepath.Join(tp.dir, "checkpoint")); err == nil {
			r.setLayer("wal.checkpoint_mb_end", float64(info.Size())/(1<<20), 1)
		}
	}
	if r.rec == nil || tp.ops == 0 {
		return
	}

	ops := float64(tp.ops)
	tickUS, _ := r.rec.total("cq.tick")
	r.setLayer("cq.tick_us_per_op", tickUS/ops, tp.ops)
	attributed := 0.0
	for _, name := range queries {
		us := float64(tp.evalNS[name]) / 1e3
		attributed += us
		r.setLayer("cq.eval_us_per_op."+name, us/ops, tp.ops)
	}
	if us, n := r.rec.total("stream.offer"); n > 0 {
		r.setLayer("stream.offer_us_per_op", us/ops, n)
	}
	r.setLayer("service.stub_us_per_op", float64(tp.stubNS)/1e3/ops, tp.ops)
	if tp.dir != "" {
		for _, s := range []struct{ span, metric string }{
			{"wal.begin", "wal.begin_us_per_op"}, {"wal.commit", "wal.commit_us_per_op"},
		} {
			us, n := r.rec.total(s.span)
			attributed += us
			r.setLayer(s.metric, us/ops, n)
		}
		for _, s := range []struct{ span, metric string }{
			{"wal.intent", "wal.intent_us_per_call"}, {"wal.result", "wal.result_us_per_call"},
		} {
			if us, n := r.rec.total(s.span); n > 0 {
				r.setLayer(s.metric, us/float64(n), n)
			}
		}
		ckptUS, _ := r.rec.total("wal.checkpoint")
		attributed += ckptUS
		if ms := r.rec.durationsMS("wal.checkpoint"); len(ms) > 0 {
			r.setLayer("wal.checkpoint_ms_p50", median(ms), len(ms))
		}
		r.setLayer("wal.checkpoints", float64(tp.checkpoints), tp.checkpoints)
		r.setLayer("wal.log_kb_per_op", float64(tp.logBytes)/1024/ops, tp.ops)
		var ckptTicks []float64
		for _, i := range tp.checkpointOps {
			ckptTicks = append(ckptTicks, r.opMS[i])
		}
		if len(ckptTicks) > 0 {
			r.setLayer("cq.checkpoint_tick_ms_p50", median(ckptTicks), len(ckptTicks))
		}
		r.setLayer("cq.checkpoint_ticks", float64(tp.checkpoints), tp.checkpoints)
	}
	// What the outside view cannot attribute to a query or to the WAL:
	// ingest drain, sources, trimming, the telemetry scrape.
	other := tickUS - attributed
	r.setLayer("cq.other_us_per_op", other/ops, tp.ops)
	r.setLayer("cq.other_share", other/tickUS, tp.ops)
}

func addInvokeStats(sum *query.InvokeStats, s query.InvokeStats) {
	sum.Passive += s.Passive
	sum.Active += s.Active
	sum.Memoized += s.Memoized
	sum.Coalesced += s.Coalesced
}

// reportInvokeStats reports the β counters of ops ops.
func reportInvokeStats(r *run, st query.InvokeStats, ops int) {
	r.setLayer("query.passive_per_op", float64(st.Passive)/float64(ops), ops)
	r.setLayer("query.active_per_op", float64(st.Active)/float64(ops), ops)
	r.setLayer("query.memoized_per_op", float64(st.Memoized)/float64(ops), ops)
	if lookups := st.Passive + st.Memoized + st.Coalesced; lookups > 0 {
		r.setLayer("query.memo_hit_ratio", float64(st.Memoized+st.Coalesced)/float64(lookups), int(lookups))
	}
}

// checkInvokeErrors fails the run for every query that recorded a failed
// invocation: the stubs never fail, so the engine lost a call.
func checkInvokeErrors(r *run, core *pems.PEMS, queries []string) {
	for _, name := range queries {
		if q, ok := core.Executor().Query(name); ok && q.InvokeErrorTotal() > 0 {
			r.fail("query %s: %d invocation errors", name, q.InvokeErrorTotal())
		}
	}
}

// pinNaive is the sensitivity check's switch: every registered continuous
// query re-evaluates from scratch each tick.
func pinNaive(core *pems.PEMS, cfg config) error {
	if !cfg.pinNaive {
		return nil
	}
	for _, name := range core.Executor().QueryNames() {
		if err := core.Executor().SetNaiveEvaluation(name, true); err != nil {
			return err
		}
	}
	return nil
}

// checkEvery is how often, in instants, the push workloads compare their
// windows with the reference.
const checkEvery = 50

// windowCheck is what the engine held at one check instant: the mean per
// location and the number of hot readings.
type windowCheck struct {
	t     int
	means map[string]float64
	hot   int
}

// snapshotWindow reads the two relations the checks compare. meansRel has
// a location and an avgtemp attribute (several rows may share a location);
// hotRel is counted.
func snapshotWindow(core *pems.PEMS, t int, meansRel, hotRel string) windowCheck {
	c := windowCheck{t: t, means: map[string]float64{}, hot: -1}
	if x, ok := core.Executor().Relation(meansRel); ok {
		loc, avg := x.Schema().RealIndex("location"), x.Schema().RealIndex("avgtemp")
		for _, tu := range x.Current() {
			c.means[tu[loc].Str()] = tu[avg].Real()
		}
	}
	if x, ok := core.Executor().Relation(hotRel); ok {
		c.hot = len(x.Current())
	}
	return c
}

func (c windowCheck) verify(r *run, load *pushLoad, period int) {
	means, hot := load.windowStats(c.t, period)
	if c.hot != hot {
		r.fail("instant %d: %d hot readings, reference has %d", c.t, c.hot, hot)
	}
	groups := 0
	for l, want := range means {
		if math.IsNaN(want) {
			continue
		}
		groups++
		got, ok := c.means[locName(l)]
		if !ok || math.Abs(got-want) > 1e-9 {
			r.fail("instant %d: mean of %s is %v (present: %v), reference has %v", c.t, locName(l), got, ok, want)
		}
	}
	if len(c.means) != groups {
		r.fail("instant %d: %d locations have a mean, reference has %d", c.t, len(c.means), groups)
	}
}
