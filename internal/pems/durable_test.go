package pems_test

import (
	"reflect"
	"testing"

	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wal"
)

// durableAlertQ is the Section 5.2 alert query used across recovery tests:
// an ACTIVE invoke whose input (address, text) is constant per contact, so
// the action set must keep it to exactly one physical send — across
// restarts included.
const durableAlertQ = `invoke[sendMessage](assign[text := "Temperature alert!"](
	join(contacts, join(surveillance,
		select[temperature > 28.0](window[1](temperatures))))))`

// durableScenario builds the scenario environment on a durable data dir,
// in the order a real embedder must use: enable durability, execute the
// (idempotent) prototype DDL, make the code registrations — devices and
// poll streams — and only then Recover. DDL-declared tables are executed
// only when the directory turned out to be fresh.
func durableScenario(t *testing.T, dir string) (*pems.PEMS, map[string]*device.Sensor, map[string]*device.Messenger, wal.Info) {
	t.Helper()
	p := pems.New()
	if err := p.EnableDurability(dir, wal.Options{Fsync: wal.SyncOff}); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	sensors, messengers, _ := localDevices(t, p)
	locAttr := []schema.Attribute{{Name: "location", Type: value.String}}
	if _, err := p.AddPollStream("temperatures", "getTemperature", "sensor", locAttr, locationOf(sensors)); err != nil {
		t.Fatal(err)
	}
	info, err := p.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Fresh {
		if err := p.ExecuteDDL(scenarioTables); err != nil {
			t.Fatal(err)
		}
	}
	return p, sensors, messengers, info
}

// TestDurableCrashRecoveryActiveOnce is the core durability guarantee: a
// crash (no Close, no final checkpoint) loses nothing, and the active
// invocation fired before the crash is never fired again — neither during
// replay nor on later ticks where the same β would recompute.
func TestDurableCrashRecoveryActiveOnce(t *testing.T) {
	dir := t.TempDir()
	p1, sensors1, msgs1, info := durableScenario(t, dir)
	if !info.Fresh {
		t.Fatalf("first start on empty dir: info = %+v", info)
	}
	if _, err := p1.RegisterQuery("alerts", durableAlertQ, false); err != nil {
		t.Fatal(err)
	}
	sensors1["sensor06"].Heat(device.HeatEvent{From: 4, To: 30, Delta: 10}) // office 21 → 31 °C
	if err := p1.Executor().RunUntil(8); err != nil {
		t.Fatal(err)
	}
	if got := msgs1["email"].Outbox(); len(got) != 1 {
		t.Fatalf("pre-crash outbox = %v", got)
	}
	// Crash: abandon p1 without Close. The WAL tail holds everything.

	p2, sensors2, msgs2, info2 := durableScenario(t, dir)
	defer p2.Close()
	if info2.Fresh {
		t.Fatal("second start should recover, not come up fresh")
	}
	if p2.Executor().Now() != 8 {
		t.Fatalf("recovered clock = %d, want 8", p2.Executor().Now())
	}
	q2, ok := p2.Executor().Query("alerts")
	if !ok {
		t.Fatal("continuous query not recovered")
	}
	if q2.Actions().Len() != 1 {
		t.Fatalf("recovered action set = %s", q2.Actions())
	}
	if got := msgs2["email"].Outbox(); len(got) != 0 {
		t.Fatalf("replay re-fired an active invocation: %v", got)
	}
	// The office is still hot after the restart. The recovered action set
	// dedups the identical (service, address, text) triple: no second send.
	sensors2["sensor06"].Heat(device.HeatEvent{From: 4, To: 30, Delta: 10})
	if err := p2.Executor().RunUntil(12); err != nil {
		t.Fatal(err)
	}
	if got := msgs2["email"].Outbox(); len(got) != 0 {
		t.Fatalf("recovered action set failed to dedup: %v", got)
	}
	if q2.Actions().Len() != 1 {
		t.Fatalf("post-recovery action set = %s", q2.Actions())
	}
	res, err := p2.OneShot(`project[name](contacts)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("recovered contacts = %d rows, want 3", res.Relation.Len())
	}
}

// TestDurableCleanShutdownRestart proves the Close path: final checkpoint,
// zero log records to replay on the next start, window contents and the ON
// ERROR degradation policy preserved.
func TestDurableCleanShutdownRestart(t *testing.T) {
	dir := t.TempDir()
	p1, _, _, info := durableScenario(t, dir)
	if !info.Fresh {
		t.Fatalf("first start: info = %+v", info)
	}
	// Registered through DDL so the ON ERROR clause takes the full
	// round-trip: DDL → WAL → checkpoint → recovery.
	if err := p1.ExecuteDDL(`REGISTER QUERY watch ON ERROR SKIP AS select[temperature > -100.0](window[3](temperatures));`); err != nil {
		t.Fatal(err)
	}
	if err := p1.Executor().RunUntil(5); err != nil {
		t.Fatal(err)
	}
	pre := p1.Executor().Snapshot()
	p1.Close() // graceful: drains, writes the final checkpoint

	p2, _, _, info2 := durableScenario(t, dir)
	defer p2.Close()
	if info2.Fresh || !info2.HadCheckpoint {
		t.Fatalf("restart after clean shutdown: info = %+v", info2)
	}
	if info2.Records != 0 || info2.Ticks != 0 {
		t.Fatalf("clean shutdown left a log tail: info = %+v", info2)
	}
	if p2.Executor().Now() != 5 {
		t.Fatalf("recovered clock = %d, want 5", p2.Executor().Now())
	}
	q2, ok := p2.Executor().Query("watch")
	if !ok {
		t.Fatal("query not in checkpoint")
	}
	if q2.Degradation() != resilience.SkipTuple {
		t.Fatalf("ON ERROR policy lost: %v", q2.Degradation())
	}
	// The recovered executor must be indistinguishable from the one that
	// shut down: same relation histories, delta-caches, stream memory,
	// statistics and action sets.
	post := p2.Executor().Snapshot()
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("recovered state differs from pre-shutdown state:\n pre  %+v\n post %+v", pre, post)
	}
	// And it keeps ticking: the next instant re-polls all four sensors.
	if err := p2.Executor().RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if got := q2.LastResult().Len(); got != 4 {
		t.Fatalf("window after restart = %d rows, want 4", got)
	}
}

// TestDurableOnErrorChangeSurvivesCrash pins that a query's ON ERROR policy
// is part of the logged environment: changing it is UNREGISTER QUERY plus a
// new REGISTER QUERY, and a crash (no Close, no final checkpoint) recovers
// the new policy whether or not a checkpoint fell between the two
// registrations.
func TestDurableOnErrorChangeSurvivesCrash(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{{"no checkpoint", false}, {"checkpoint between registrations", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p1, _, _, _ := durableScenario(t, dir)
			if err := p1.ExecuteDDL(`REGISTER QUERY pol ON ERROR SKIP AS invoke[checkPhoto](cameras);`); err != nil {
				t.Fatal(err)
			}
			if _, err := p1.Tick(); err != nil {
				t.Fatal(err)
			}
			if tc.checkpoint {
				if err := p1.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := p1.ExecuteDDL(`UNREGISTER QUERY pol;
				REGISTER QUERY pol ON ERROR NULL AS invoke[checkPhoto](cameras);`); err != nil {
				t.Fatal(err)
			}
			if _, err := p1.Tick(); err != nil {
				t.Fatal(err)
			}
			// Crash: abandon p1 without Close.

			p2, _, _, info := durableScenario(t, dir)
			defer p2.Close()
			if info.Fresh || info.HadCheckpoint != tc.checkpoint {
				t.Fatalf("recovery info = %+v, want a checkpoint: %v", info, tc.checkpoint)
			}
			q, ok := p2.Executor().Query("pol")
			if !ok {
				t.Fatal("query pol not recovered")
			}
			if q.Degradation() != resilience.NullFill {
				t.Fatalf("recovered ON ERROR = %v, want NULL", q.Degradation())
			}
			// The recovered policy acts: a camera nobody implements keeps its
			// tuple, NULL-filled, instead of being skipped.
			if err := p2.ExecuteDDL(`INSERT INTO cameras VALUES (ghost01, "attic");`); err != nil {
				t.Fatal(err)
			}
			if _, err := p2.Tick(); err != nil {
				t.Fatal(err)
			}
			res := q.LastResult()
			if res.Len() != 4 {
				t.Fatalf("result = %d tuples, want 4 (three cameras plus the NULL-filled ghost)", res.Len())
			}
			nulls := 0
			for _, tu := range res.Tuples() {
				if tu[2].IsNull() {
					nulls++
				}
			}
			if nulls != 1 {
				t.Fatalf("result carries %d NULL-filled tuples, want 1:\n%s", nulls, res.Table())
			}
		})
	}
}

// TestDurableDDLTailReplay exercises DDL executed after the last
// checkpoint: new relations, their data, a late query with a policy, and
// an unregistration must all replay from the log tail.
func TestDurableDDLTailReplay(t *testing.T) {
	dir := t.TempDir()
	p1, _, _, _ := durableScenario(t, dir)
	if err := p1.Executor().RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything below lives only in the WAL tail.
	if err := p1.ExecuteDDL(`
		EXTENDED RELATION notes ( body STRING );
		INSERT INTO notes VALUES ("hello");`); err != nil {
		t.Fatal(err)
	}
	if err := p1.ExecuteDDL(`REGISTER QUERY late ON ERROR NULL AS project[name](contacts);`); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.RegisterQuery("doomed", `project[name](contacts)`, false); err != nil {
		t.Fatal(err)
	}
	if err := p1.UnregisterQuery("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := p1.Executor().RunUntil(4); err != nil { // the INSERT lands at tick 3
		t.Fatal(err)
	}
	// Crash without Close.

	p2, _, _, info := durableScenario(t, dir)
	defer p2.Close()
	if info.Fresh || info.Records == 0 {
		t.Fatalf("expected a log tail to replay: info = %+v", info)
	}
	res, err := p2.OneShot(`project[body](notes)`)
	if err != nil {
		t.Fatalf("relation created after checkpoint not recovered: %v", err)
	}
	if res.Relation.Len() != 1 {
		t.Fatalf("notes = %d rows, want 1", res.Relation.Len())
	}
	q, ok := p2.Executor().Query("late")
	if !ok {
		t.Fatal("late query not replayed")
	}
	if q.Degradation() != resilience.NullFill {
		t.Fatalf("late query policy = %v", q.Degradation())
	}
	if _, ok := p2.Executor().Query("doomed"); ok {
		t.Fatal("unregistered query resurrected by replay")
	}
}

// TestDurableMaterializedIntoRoundTrip: a REGISTER QUERY … INTO … RETAIN
// declaration survives both recovery paths — WAL tail replay after a crash
// and checkpoint restore after a clean shutdown — with the materialized
// relation's contents re-derived, the retention policy intact, and the
// consumer guard still enforced afterwards.
func TestDurableMaterializedIntoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p1, sensors1, _, _ := durableScenario(t, dir)
	if err := p1.ExecuteDDL(`REGISTER QUERY rollup INTO hotzones RETAIN 8 INSTANTS AS
		select[temperature > 25.0](window[2](temperatures));`); err != nil {
		t.Fatal(err)
	}
	sensors1["sensor06"].Heat(device.HeatEvent{From: 2, To: 30, Delta: 10})
	if err := p1.Executor().RunUntil(6); err != nil {
		t.Fatal(err)
	}
	x1, ok := p1.Executor().Relation("hotzones")
	if !ok {
		t.Fatal("INTO relation missing before crash")
	}
	want := len(x1.Current())
	if want == 0 {
		t.Fatal("materialized relation empty before crash")
	}
	// Crash without Close: the registration and every derived event live in
	// the WAL tail.

	p2, sensors2, _, info := durableScenario(t, dir)
	if info.Fresh {
		t.Fatal("expected recovery, got fresh start")
	}
	q2, ok := p2.Executor().Query("rollup")
	if !ok {
		t.Fatal("rollup query not replayed")
	}
	if q2.Into() != "hotzones" || q2.Retain() != 8 {
		t.Fatalf("INTO/RETAIN lost in tail replay: into=%q retain=%d", q2.Into(), q2.Retain())
	}
	x2, ok := p2.Executor().Relation("hotzones")
	if !ok {
		t.Fatal("INTO relation not recovered")
	}
	if got := len(x2.Current()); got != want {
		t.Fatalf("recovered hotzones = %d rows, want %d", got, want)
	}
	// Keep the heat on and tick across the checkpoint boundary, then shut
	// down cleanly so the second restart restores from the checkpoint alone.
	sensors2["sensor06"].Heat(device.HeatEvent{From: 2, To: 30, Delta: 10})
	if err := p2.Executor().RunUntil(9); err != nil {
		t.Fatal(err)
	}
	want2 := len(x2.Current())
	p2.Close()

	p3, _, _, info3 := durableScenario(t, dir)
	defer p3.Close()
	if info3.Fresh || !info3.HadCheckpoint || info3.Records != 0 {
		t.Fatalf("restart after clean shutdown: info = %+v", info3)
	}
	q3, ok := p3.Executor().Query("rollup")
	if !ok {
		t.Fatal("rollup query not in checkpoint")
	}
	if q3.Into() != "hotzones" || q3.Retain() != 8 {
		t.Fatalf("INTO/RETAIN lost in checkpoint: into=%q retain=%d", q3.Into(), q3.Retain())
	}
	x3, ok := p3.Executor().Relation("hotzones")
	if !ok {
		t.Fatal("INTO relation not in checkpoint")
	}
	if got := len(x3.Current()); got != want2 {
		t.Fatalf("checkpointed hotzones = %d rows, want %d", got, want2)
	}
	// The lifecycle guard survives recovery: a consumer over the recovered
	// materialized relation pins its producer.
	if _, err := p3.RegisterQuery("reader", `project[location](hotzones)`, false); err != nil {
		t.Fatal(err)
	}
	if err := p3.UnregisterQuery("rollup"); err == nil {
		t.Fatal("unregistering a recovered producer with a consumer must fail")
	}
	if err := p3.UnregisterQuery("reader"); err != nil {
		t.Fatal(err)
	}
	if err := p3.UnregisterQuery("rollup"); err != nil {
		t.Fatal(err)
	}
}

// TestDurableDiscoveryRecovery is the discovery × recovery interaction: a
// service whose lease expired while the system was down is restored from
// the log (its row was real at crash time) but must be withdrawn — not
// duplicated — on the first post-recovery sync, and breaker state must
// come back empty rather than resurrected from before the crash.
func TestDurableDiscoveryRecovery(t *testing.T) {
	dir := t.TempDir()
	liveSchema := func() *schema.Extended {
		return schema.MustExtended("livesensors", []schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		}, nil)
	}

	breakersOn := pems.WithConfig(pems.Config{Registry: service.Options{Breakers: &resilience.BreakerPolicy{FailureThreshold: 1}}})
	p1 := pems.New(breakersOn)
	if err := p1.EnableDurability(dir, wal.Options{Fsync: wal.SyncOff}); err != nil {
		t.Fatal(err)
	}
	if err := p1.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	sensors1, _, _ := localDevices(t, p1)
	if _, err := p1.AddDiscoveryRelation(liveSchema(), "sensor", "getTemperature", nil); err != nil {
		t.Fatal(err)
	}
	bs1 := p1.Registry().Breakers()
	if _, err := p1.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Executor().RunUntil(2); err != nil {
		t.Fatal(err)
	}
	// Trip sensor22's breaker; breaker state is deliberately not durable.
	bs1.OnResult("sensor22", false)
	if bs1.State("sensor22") != resilience.Open {
		t.Fatalf("breaker not open: %v", bs1.State("sensor22"))
	}
	_ = sensors1
	// Crash without Close.

	// Second life: sensor22's lease expired while the system was down — it
	// is not re-registered.
	p2 := pems.New(breakersOn)
	defer p2.Close()
	if err := p2.EnableDurability(dir, wal.Options{Fsync: wal.SyncOff}); err != nil {
		t.Fatal(err)
	}
	if err := p2.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		ref, loc string
		base     float64
	}{{"sensor01", "corridor", 19}, {"sensor06", "office", 21}, {"sensor07", "office", 22}} {
		if err := p2.Registry().Register(device.NewSensor(s.ref, s.loc, s.base)); err != nil {
			t.Fatal(err)
		}
	}
	rel2, err := p2.AddDiscoveryRelation(liveSchema(), "sensor", "getTemperature", nil)
	if err != nil {
		t.Fatal(err)
	}
	breakers := p2.Registry().Breakers()
	if _, err := p2.Recover(); err != nil {
		t.Fatal(err)
	}
	// The restored relation still carries all four rows: at crash time the
	// environment genuinely contained sensor22.
	if got := len(rel2.Current()); got != 4 {
		t.Fatalf("restored discovery relation = %d rows, want 4", got)
	}
	for ref, st := range breakers.States() {
		if st != resilience.Closed {
			t.Fatalf("breaker %s resurrected %v after restart", ref, st)
		}
	}
	// First post-recovery tick: the expired service is withdrawn, the
	// surviving three are NOT inserted a second time.
	if err := p2.Executor().RunUntil(3); err != nil {
		t.Fatal(err)
	}
	rows := rel2.Current()
	if len(rows) != 3 {
		t.Fatalf("after sync rows = %d, want 3", len(rows))
	}
	seen := map[string]int{}
	for _, row := range rows {
		seen[row[0].ServiceRef()]++
	}
	for ref, n := range seen {
		if n != 1 {
			t.Fatalf("service %s has %d rows", ref, n)
		}
	}
	if seen["sensor22"] != 0 {
		t.Fatal("expired service still discovered")
	}
	// The node comes back later: re-registered, it reappears exactly once.
	if err := p2.Registry().Register(device.NewSensor("sensor22", "roof", 15)); err != nil {
		t.Fatal(err)
	}
	if err := p2.Executor().RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if got := len(rel2.Current()); got != 4 {
		t.Fatalf("returned service rows = %d, want 4", got)
	}
}

// TestDurableFeedStreamNoReplayDuplicates guards the feed high-water-mark
// resync: after recovery the first live poll must fetch only items newer
// than the recovered instant, not re-insert the restored history.
func TestDurableFeedStreamNoReplayDuplicates(t *testing.T) {
	dir := t.TempDir()
	build := func() (*pems.PEMS, wal.Info) {
		p := pems.New()
		if err := p.EnableDurability(dir, wal.Options{Fsync: wal.SyncOff}); err != nil {
			t.Fatal(err)
		}
		if err := p.ExecuteDDL(table1Prototypes); err != nil {
			t.Fatal(err)
		}
		if err := p.Registry().RegisterPrototype(device.GetItemsProto()); err != nil {
			t.Fatal(err)
		}
		if err := p.Registry().Register(device.NewFeed("lemonde", "Le Monde", 2, []string{"Obama"})); err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddFeedStream("news"); err != nil {
			t.Fatal(err)
		}
		info, err := p.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return p, info
	}

	p1, info := build()
	if !info.Fresh {
		t.Fatalf("first start: info = %+v", info)
	}
	q1, err := p1.RegisterQuery("all", `window[3600](news)`, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Executor().RunUntil(6); err != nil {
		t.Fatal(err)
	}
	want := q1.LastResult().Len() // items 0..3 (period 2): 4 rows
	if want == 0 {
		t.Fatal("feed produced nothing")
	}
	// Crash without Close.

	p2, info2 := build()
	defer p2.Close()
	if info2.Fresh {
		t.Fatal("expected recovery")
	}
	q2, ok := p2.Executor().Query("all")
	if !ok {
		t.Fatal("query not recovered")
	}
	if err := p2.Executor().RunUntil(8); err != nil {
		t.Fatal(err)
	}
	// One new item (seq 4 at instant 8); the restored four must appear once.
	if got := q2.LastResult().Len(); got != want+1 {
		t.Fatalf("window after recovery = %d rows, want %d", got, want+1)
	}
}
