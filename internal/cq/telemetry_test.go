package cq_test

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/obs"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// telemetryEnv is a minimal executor with self-telemetry enabled FIRST, so
// the scraper source runs ahead of any feed source (the production wiring:
// EnableSelfTelemetry is called before streams are attached to sources).
// rel returns the executor's relation name, which must exist.
func (e *telemetryEnv) rel(t *testing.T, name string) *stream.XDRelation {
	t.Helper()
	x, ok := e.exec.Relation(name)
	if !ok {
		t.Fatalf("relation %s not registered", name)
	}
	return x
}

type telemetryEnv struct {
	exec  *cq.Executor
	reg   *service.Registry
	tel   *cq.Telemetry
	temps *stream.XDRelation
	// feedUntil gates the temperature pump: instants > feedUntil are
	// silent, simulating a died feed.
	feedUntil service.Instant
}

func newTelemetryEnv(t *testing.T, opts cq.TelemetryOptions) *telemetryEnv {
	t.Helper()
	return newTelemetryEnvWith(t, opts, cq.Options{}, service.Options{})
}

// newTelemetryEnvWith is newTelemetryEnv over an executor and a registry
// built with the given options.
func newTelemetryEnvWith(t *testing.T, opts cq.TelemetryOptions, execOpts cq.Options, regOpts service.Options) *telemetryEnv {
	t.Helper()
	reg, _ := paperenv.MustRegistry(regOpts)
	exec := cq.NewExecutor(reg, execOpts)
	tel, err := exec.EnableSelfTelemetry(opts)
	if err != nil {
		t.Fatal(err)
	}
	env := &telemetryEnv{exec: exec, reg: reg, tel: tel, feedUntil: 1 << 30}
	env.temps = stream.NewInfinite(paperenv.TemperaturesSchema())
	if err := exec.AddRelation(env.temps); err != nil {
		t.Fatal(err)
	}
	exec.AddSource(func(at service.Instant) error {
		if at > env.feedUntil {
			return nil
		}
		return env.temps.Insert(at, value.Tuple{
			value.NewService("sensor01"), value.NewString("office"), value.NewReal(20),
		})
	})
	return env
}

func (env *telemetryEnv) tick(t *testing.T) service.Instant {
	t.Helper()
	at, err := env.exec.Tick()
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// queryState returns the health snapshot entry for one query.
func (env *telemetryEnv) queryState(t *testing.T, name string) cq.QueryHealth {
	t.Helper()
	for _, qh := range env.tel.Health().Queries {
		if qh.Query == name {
			return qh
		}
	}
	t.Fatalf("query %q not in health snapshot", name)
	return cq.QueryHealth{}
}

func (env *telemetryEnv) streamState(t *testing.T, name string) cq.StreamHealth {
	t.Helper()
	for _, sh := range env.tel.Health().Streams {
		if sh.Stream == name {
			return sh
		}
	}
	t.Fatalf("stream %q not in health snapshot", name)
	return cq.StreamHealth{}
}

func TestTelemetryRelationsRegistered(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	for _, name := range []string{cq.SysMetrics, cq.SysHealth, cq.SysStreams} {
		x, ok := env.exec.Relation(name)
		if !ok {
			t.Fatalf("relation %s not registered", name)
		}
		if !x.Ephemeral() {
			t.Fatalf("relation %s must be ephemeral (never WAL-logged)", name)
		}
	}
	if env.exec.Telemetry() != env.tel {
		t.Fatal("Executor.Telemetry() did not return the enabled subsystem")
	}
	if _, err := env.exec.EnableSelfTelemetry(cq.TelemetryOptions{}); err == nil {
		t.Fatal("second EnableSelfTelemetry must error")
	}
}

func TestSysPrefixReservedForQueries(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	_, err := env.exec.Register("sys$evil", query.NewBase(cq.SysHealth))
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("registering a sys$ query name must be rejected, got %v", err)
	}
}

// TestSysMetricsRowsAndDeltas checks the scrape's value/delta semantics
// on a counter only the test moves.
func TestSysMetricsRowsAndDeltas(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	reg := env.reg.Metrics()
	c := reg.Counter("test.widgets")
	c.Add(5)
	at0 := env.tick(t)
	c.Add(3)
	at1 := env.tick(t)

	find := func(at service.Instant) (val, delta float64) {
		t.Helper()
		for _, tu := range env.rel(t, cq.SysMetrics).InsertedIn(at-1, at) { // (from, to]
			if tu[0].Str() == "test.widgets" {
				if k := tu[1].Str(); k != "counter" {
					t.Fatalf("kind = %q, want counter", k)
				}
				return tu[2].Real(), tu[3].Real()
			}
		}
		t.Fatalf("no sys$metrics row for test.widgets at %d", at)
		return 0, 0
	}
	if v, d := find(at0); v != 5 || d != 5 {
		t.Fatalf("first scrape: value=%v delta=%v, want 5/5", v, d)
	}
	if v, d := find(at1); v != 8 || d != 3 {
		t.Fatalf("second scrape: value=%v delta=%v, want 8/3", v, d)
	}
}

// TestQueryOverSysMetrics is the headline behaviour: REGISTER QUERY works
// over engine health exactly like over a device feed.
func TestQueryOverSysMetrics(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	reg := env.reg.Metrics()
	c := reg.Counter("test.widgets")
	c.Inc()
	q, err := env.exec.Register("meter", query.NewSelect(
		query.NewWindow(query.NewBase(cq.SysMetrics), 4),
		algebra.Compare(algebra.Attr("metric"), algebra.Eq, algebra.Const(value.NewString("test.widgets")))))
	if err != nil {
		t.Fatal(err)
	}
	env.tick(t)
	if q.LastResult().Len() != 1 {
		t.Fatalf("query over sys$metrics = %d tuples, want 1", q.LastResult().Len())
	}
	c.Inc()
	env.tick(t)
	if q.LastResult().Len() != 2 {
		t.Fatalf("after two scrapes = %d tuples, want 2", q.LastResult().Len())
	}
	// An unchanged metric contributes no new row (sys$metrics is a change
	// stream), but the window still holds the earlier ones.
	env.tick(t)
	if q.LastResult().Len() != 2 {
		t.Fatalf("after an idle scrape = %d tuples, want 2", q.LastResult().Len())
	}
}

// TestSysMetricsRetention checks the pseudo-window trim horizon (32
// instants) bounds the sys$metrics event log.
func TestSysMetricsRetention(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	reg := env.reg.Metrics()
	c := reg.Counter("test.widgets")
	for i := 0; i < 100; i++ {
		c.Inc() // one fresh row per scrape
		env.tick(t)
	}
	// One test.widgets row per scrape; with retention 32 the trimmer keeps
	// only the last few dozen instants' events, not all 100.
	n := 0
	for _, ev := range env.rel(t, cq.SysMetrics).EventsIn(-1, env.exec.Now()) {
		if ev.Tuple[0].Str() == "test.widgets" {
			n++
		}
	}
	if n > 34 {
		t.Fatalf("sys$metrics holds %d test.widgets events after 100 ticks with retention 32", n)
	}
}

func TestQueryHealthDegradedOnInvokeErrors(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	// Replace sensor01 with a variant failing at instants 0..1.
	if err := env.reg.Unregister("sensor01"); err != nil {
		t.Fatal(err)
	}
	flaky := &brokenSensor{Sensor: device.NewSensor("sensor01", "corridor", 19), failFrom: 0, failTo: 1}
	if err := env.reg.Register(flaky); err != nil {
		t.Fatal(err)
	}
	sensors := stream.NewFinite(paperenv.SensorsSchema())
	for _, tu := range paperenv.Sensors().Tuples() {
		if err := sensors.Insert(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.exec.AddRelation(sensors); err != nil {
		t.Fatal(err)
	}
	if _, err := env.exec.Register("poll", query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")); err != nil {
		t.Fatal(err)
	}

	env.tick(t) // instant 0: scrape sees a fresh query (OK), eval fails after
	if st := env.queryState(t, "poll"); st.State != cq.HealthOK {
		t.Fatalf("before first eval: state = %s, want OK", st.State)
	}
	env.tick(t) // instant 1: scrape sees instant 0's failure
	st := env.queryState(t, "poll")
	if st.State != cq.HealthDegraded {
		t.Fatalf("after invoke failure: state = %s, want DEGRADED", st.State)
	}
	if !strings.Contains(st.Reason, "invocation failure") {
		t.Fatalf("reason = %q", st.Reason)
	}
	if st.InvokeErrors == 0 {
		t.Fatal("InvokeErrors not carried into the snapshot")
	}
	env.tick(t) // instant 2: scrape sees instant 1's failure, still DEGRADED
	env.tick(t) // instant 3: instant 2 succeeded → back to OK
	if st := env.queryState(t, "poll"); st.State != cq.HealthOK {
		t.Fatalf("after recovery: state = %s, want OK", st.State)
	}

	// Edge-triggered: OK insert, OK→DEGRADED (delete+insert), DEGRADED→OK
	// (delete+insert) — exactly 5 events despite 4 scrapes.
	if n := env.rel(t, cq.SysHealth).EventCount(); n != 5 {
		t.Fatalf("sys$health events = %d, want 5 (edge-triggered reconciliation)", n)
	}
}

// slowSensor is a sensor whose invocation at one instant takes delay.
type slowSensor struct {
	*device.Sensor
	slowAt service.Instant
	delay  time.Duration
}

func (s *slowSensor) Invoke(ctx context.Context, proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if at == s.slowAt {
		time.Sleep(s.delay)
	}
	return s.Sensor.Invoke(ctx, proto, in, at)
}

func TestQueryHealthOverloadedOnBudget(t *testing.T) {
	const budget = 50 * time.Millisecond
	env := newTelemetryEnvWith(t, cq.TelemetryOptions{}, cq.Options{TickBudget: budget}, service.Options{})
	// Replace sensor01 with a variant whose instant-0 reading takes twice
	// the budget; every other evaluation stays far below it.
	if err := env.reg.Unregister("sensor01"); err != nil {
		t.Fatal(err)
	}
	slow := &slowSensor{Sensor: device.NewSensor("sensor01", "corridor", 19), slowAt: 0, delay: 2 * budget}
	if err := env.reg.Register(slow); err != nil {
		t.Fatal(err)
	}
	sensors := stream.NewFinite(paperenv.SensorsSchema())
	for _, tu := range paperenv.Sensors().Tuples() {
		if err := sensors.Insert(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.exec.AddRelation(sensors); err != nil {
		t.Fatal(err)
	}
	if _, err := env.exec.Register("poll", query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")); err != nil {
		t.Fatal(err)
	}
	env.tick(t) // instant 0: the slow evaluation, latency recorded
	env.tick(t) // instant 1: scrape sees the overrun
	st := env.queryState(t, "poll")
	if st.State != cq.HealthOverloaded {
		t.Fatalf("state = %s, want OVERLOADED", st.State)
	}
	if !strings.Contains(st.Reason, "tick budget") {
		t.Fatalf("reason = %q", st.Reason)
	}
	env.tick(t) // instant 2: scrape sees instant 1's evaluation, within budget
	if st := env.queryState(t, "poll"); st.State != cq.HealthOK {
		t.Fatalf("after a fast evaluation: state = %s, want OK", st.State)
	}
}

func TestQueryHealthOverloadedOnCoalescing(t *testing.T) {
	env := newTelemetryEnvWith(t, cq.TelemetryOptions{}, cq.Options{TickBudget: time.Nanosecond, Coalesce: true}, service.Options{})
	q, err := env.exec.Register("w", query.NewWindow(query.NewBase("temperatures"), 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		env.tick(t)
	}
	if q.Coalesced() == 0 {
		t.Skip("coalescing did not engage on this machine")
	}
	st := env.queryState(t, "w")
	if st.State != cq.HealthOverloaded {
		t.Fatalf("state = %s, want OVERLOADED", st.State)
	}
	if st.Coalesced == 0 {
		t.Fatal("Coalesced not carried into the snapshot")
	}
}

func TestQueryHealthDegradedOnNaiveFallback(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	q, err := env.exec.Register("w", query.NewWindow(query.NewBase("temperatures"), 4))
	if err != nil {
		t.Fatal(err)
	}
	env.tick(t)
	env.tick(t)
	if st := env.queryState(t, "w"); st.State != cq.HealthOK {
		t.Fatalf("delta path healthy: state = %s, want OK", st.State)
	}
	if q.EvaluationMode() != "delta" {
		t.Skip("plan has no delta form; fallback rule not exercisable")
	}
	if err := env.exec.SetNaiveEvaluation("w", true); err != nil {
		t.Fatal(err)
	}
	env.tick(t) // instant 2: evaluated naive
	env.tick(t) // instant 3: scrape sees naiveTicks grow while delta exists
	st := env.queryState(t, "w")
	if st.State != cq.HealthDegraded {
		t.Fatalf("state = %s, want DEGRADED", st.State)
	}
	if !strings.Contains(st.Reason, "naive") {
		t.Fatalf("reason = %q", st.Reason)
	}
}

func TestQueryHealthDegradedOnOpenBreaker(t *testing.T) {
	env := newTelemetryEnvWith(t, cq.TelemetryOptions{}, cq.Options{},
		service.Options{Breakers: &resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour}})
	sensors := stream.NewFinite(paperenv.SensorsSchema())
	for _, tu := range paperenv.Sensors().Tuples() {
		if err := sensors.Insert(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.exec.AddRelation(sensors); err != nil {
		t.Fatal(err)
	}
	if _, err := env.exec.Register("poll", query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")); err != nil {
		t.Fatal(err)
	}
	bs := env.reg.Breakers()
	env.tick(t)
	if st := env.queryState(t, "poll"); st.State != cq.HealthOK {
		t.Fatalf("closed breakers: state = %s, want OK", st.State)
	}
	bs.OnResult("sensor01", false) // trips open (threshold 1)
	env.tick(t)
	st := env.queryState(t, "poll")
	if st.State != cq.HealthDegraded {
		t.Fatalf("open breaker: state = %s, want DEGRADED", st.State)
	}
	if !strings.Contains(st.Reason, "sensor01") || !strings.Contains(st.Reason, "getTemperature") {
		t.Fatalf("reason = %q, want breaker blame", st.Reason)
	}
}

func TestStreamDeadMan(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	env.tel.SetStreamCadence("temperatures", 2)
	env.feedUntil = 2 // pump instants 0..2, then silence

	// Register the paper-style dead-man alert: one insertion per transition.
	alert, err := env.exec.Register("deadman", query.NewStream(
		query.NewSelect(query.NewBase(cq.SysStreams),
			algebra.Compare(algebra.Attr("state"), algebra.Eq, algebra.Const(value.NewString("STALLED")))),
		query.StreamInsertion))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i <= 4; i++ {
		env.tick(t)
		if st := env.streamState(t, "temperatures"); st.State != cq.HealthOK {
			t.Fatalf("instant %d: state = %s, want OK (lag within cadence)", i, st.State)
		}
		if alert.LastResult().Len() != 0 {
			t.Fatalf("instant %d: dead-man fired early", i)
		}
	}
	at := env.tick(t) // instant 5: lag 3 > cadence 2 → STALLED
	st := env.streamState(t, "temperatures")
	if st.State != cq.HealthStalled {
		t.Fatalf("instant %d: state = %s, want STALLED", at, st.State)
	}
	if st.Lag != 3 || st.Cadence != 2 {
		t.Fatalf("lag=%d cadence=%d, want 3/2", st.Lag, st.Cadence)
	}
	if alert.LastResult().Len() != 1 {
		t.Fatalf("dead-man alert = %d tuples, want exactly 1 on the transition", alert.LastResult().Len())
	}
	env.tick(t) // instant 6: still stalled, but edge-triggered → no new insertion
	if alert.LastResult().Len() != 0 {
		t.Fatalf("dead-man re-fired while state unchanged")
	}

	// Resume the feed: the pump runs after the scraper, so recovery is
	// visible one instant later.
	env.feedUntil = 1 << 30
	env.tick(t) // instant 7: pump refills after scrape
	env.tick(t) // instant 8: scrape sees lag 1 → OK
	if st := env.streamState(t, "temperatures"); st.State != cq.HealthOK {
		t.Fatalf("after feed resumed: state = %s, want OK", st.State)
	}
}

// TestHealthTransitionsInEngineRegistry: the health state machine records
// its transitions and states in the executor's registry — the one
// sys$metrics samples and /metrics serves — not in a registry shared with
// other engines.
func TestHealthTransitionsInEngineRegistry(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	env.tel.SetStreamCadence("temperatures", 1)
	env.feedUntil = 0
	if _, err := env.exec.Register("recent", query.NewWindow(query.NewBase("temperatures"), 1)); err != nil {
		t.Fatal(err)
	}
	m := env.reg.Metrics()
	transitions := m.Counter("cq.health.transitions")
	env.tick(t) // first scrape: the query and the stream enter OK
	if got := transitions.Value(); got != 2 {
		t.Fatalf("cq.health.transitions = %d after the first scrape, want 2", got)
	}
	queryGauge, streamGauge := obs.Key("cq.query.health", "recent"), obs.Key("cq.stream.health", "temperatures")
	if g, ok := m.Snapshot().Gauges[queryGauge]; !ok || g != int64(cq.HealthOK) {
		t.Fatalf("%s = %d (present %v), want OK", queryGauge, g, ok)
	}
	for env.streamState(t, "temperatures").State != cq.HealthStalled {
		if env.tick(t) > 5 {
			t.Fatal("temperatures never stalled")
		}
	}
	// The stream stalled, and so did the query reading it.
	if got := transitions.Value(); got != 4 {
		t.Fatalf("cq.health.transitions = %d after the stall, want 4", got)
	}
	snap := m.Snapshot()
	for _, name := range []string{queryGauge, streamGauge} {
		if g := snap.Gauges[name]; g != int64(cq.HealthStalled) {
			t.Fatalf("%s = %d, want STALLED (%d)", name, g, cq.HealthStalled)
		}
	}
}

// TestStalledInputStreamStallsQuery: a query reading a dead stream is
// itself STALLED — the worst state wins over any other rule.
func TestStalledInputStreamStallsQuery(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	env.tel.SetStreamCadence("temperatures", 2)
	env.feedUntil = 2
	if _, err := env.exec.Register("w", query.NewWindow(query.NewBase("temperatures"), 8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 5; i++ {
		env.tick(t)
	}
	st := env.queryState(t, "w")
	if st.State != cq.HealthStalled {
		t.Fatalf("state = %s, want STALLED", st.State)
	}
	if !strings.Contains(st.Reason, "temperatures") {
		t.Fatalf("reason = %q, want the silent stream named", st.Reason)
	}
}

func TestStreamNeverProduced(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	silent := stream.NewInfinite(schema.MustExtended("void", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "n", Type: value.Int}},
	}, nil))
	if err := env.exec.AddRelation(silent); err != nil {
		t.Fatal(err)
	}
	env.tel.SetStreamCadence("void", 1)
	env.tick(t) // instant 0: effective lag 1, not yet past cadence
	env.tick(t) // instant 1: effective lag 2 > 1 → STALLED
	st := env.streamState(t, "void")
	if st.State != cq.HealthStalled {
		t.Fatalf("state = %s, want STALLED", st.State)
	}
	if st.Lag != cq.LagNeverProduced {
		t.Fatalf("lag = %d, want LagNeverProduced (%d)", st.Lag, cq.LagNeverProduced)
	}
	// Satellite fix: the cq.stream.lag gauge uses the explicit sentinel,
	// not the old at+1 encoding.
	if g := env.reg.Metrics().Gauge(obs.Key("cq.stream.lag", "void")).Value(); g != cq.LagNeverProduced {
		t.Fatalf("cq.stream.lag gauge = %d, want %d", g, cq.LagNeverProduced)
	}
}

func TestCadenceRemovalClearsStall(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	env.tel.SetStreamCadence("temperatures", 1)
	env.feedUntil = 0
	env.tick(t)
	env.tick(t)
	env.tick(t)
	if st := env.streamState(t, "temperatures"); st.State != cq.HealthStalled {
		t.Fatalf("state = %s, want STALLED", st.State)
	}
	env.tel.SetStreamCadence("temperatures", 0) // dead-man off
	env.tick(t)
	if st := env.streamState(t, "temperatures"); st.State != cq.HealthOK {
		t.Fatalf("after cadence removed: state = %s, want OK", st.State)
	}
}

func TestUnregisterRetractsHealthTuple(t *testing.T) {
	env := newTelemetryEnv(t, cq.TelemetryOptions{})
	if _, err := env.exec.Register("w", query.NewWindow(query.NewBase("temperatures"), 4)); err != nil {
		t.Fatal(err)
	}
	env.tick(t)
	if n := len(env.rel(t, cq.SysHealth).Current()); n != 1 {
		t.Fatalf("sys$health holds %d tuples, want 1", n)
	}
	if err := env.exec.Unregister("w"); err != nil {
		t.Fatal(err)
	}
	env.tick(t)
	if n := len(env.rel(t, cq.SysHealth).Current()); n != 0 {
		t.Fatalf("sys$health holds %d tuples after unregister, want 0", n)
	}
	if len(env.tel.Health().Queries) != 0 {
		t.Fatal("health snapshot still lists the unregistered query")
	}
}

// idleScrapeAllocs returns one steady telemetry tick's allocations on a bare
// executor whose registry also holds idle extra histograms.
func idleScrapeAllocs(t *testing.T, idle int) float64 {
	t.Helper()
	reg := service.NewRegistry()
	for i := 0; i < idle; i++ {
		reg.Metrics().Histogram("idle.h" + strconv.Itoa(i))
	}
	exec := cq.NewExecutor(reg, cq.Options{})
	if _, err := exec.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		t.Fatal(err)
	}
	// Warm up past the first scrapes, which emit every series once.
	for i := 0; i < 3; i++ {
		if _, err := exec.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := exec.Tick(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIdleHistogramsAddNoScrapeAllocations pins the sys$metrics scrape at
// O(changed series): a histogram that does not move costs a tick no string.
// Measured 19 allocations per tick with no extra histograms and 20 with 50
// idle ones; when the scrape built each histogram's six row names at every
// tick, 37 and 338.
func TestIdleHistogramsAddNoScrapeAllocations(t *testing.T) {
	none := idleScrapeAllocs(t, 0)
	fifty := idleScrapeAllocs(t, 50)
	if fifty > none+5 {
		t.Errorf("a telemetry tick allocates %.0f with 50 idle histograms and %.0f with none, want at most 5 more", fifty, none)
	}
}
