package cq_test

import (
	"sort"
	"strings"
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

// TestDerivedRelationChaining: a continuous query's output is readable by
// later-registered queries under its name — continuous views.
func TestDerivedRelationChaining(t *testing.T) {
	s := newScenario(t)
	// Stage 1: hot readings (finite derived relation named "hot").
	hot, err := s.exec.Register("hot", query.NewSelect(
		query.NewWindow(query.NewBase("temperatures"), 1),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(28)))))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 2: alerts over the derived relation.
	alerts, err := s.exec.Register("alerts", query.NewInvoke(
		query.NewAssignConst(
			query.NewJoin(query.NewBase("contacts"), query.NewBase("hot")),
			"text", value.NewString("Hot!")),
		"sendMessage", ""))
	if err != nil {
		t.Fatal(err)
	}
	s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 2, To: 4, Delta: 10})
	if err := s.exec.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if hot.LastResult().Len() != 0 {
		t.Fatal("hot view should be empty after the event")
	}
	// 3 contacts × 1 hot episode, alerted once each via the derived view.
	if alerts.Actions().Len() != 3 {
		t.Fatalf("actions = %s", alerts.Actions())
	}
	total := len(s.dev.Messengers["email"].Outbox()) + len(s.dev.Messengers["jabber"].Outbox())
	if total != 3 {
		t.Fatalf("deliveries = %d, want 3", total)
	}
}

func TestDerivedRelationLifecycle(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("v", query.NewBase("contacts")); err != nil {
		t.Fatal(err)
	}
	// A query may not shadow an existing relation name, nor vice versa.
	if _, err := s.exec.Register("contacts", query.NewBase("cameras")); err == nil {
		t.Fatal("query shadowing a relation accepted")
	}
	if x, ok := s.exec.Relation("v"); !ok || x == nil {
		t.Fatal("derived relation not visible")
	}
	if err := s.exec.Unregister("v"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.exec.Relation("v"); ok {
		t.Fatal("derived relation should disappear with its query")
	}
}

// TestStreamTrimming: with windowed readers registered, stream logs stay
// bounded by the largest window period instead of growing forever.
func TestStreamTrimming(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("w3", query.NewWindow(query.NewBase("temperatures"), 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.Register("w10", query.NewWindow(query.NewBase("temperatures"), 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.RunUntil(99); err != nil {
		t.Fatal(err)
	}
	// 4 sensors × 100 instants = 400 events; retention = max window (10) +
	// slack, so the log must be far below 400 and at least 10 instants deep.
	temps, _ := s.exec.Relation("temperatures")
	if got := temps.EventCount(); got > 4*13 || got < 4*10 {
		t.Fatalf("trimmed log = %d events, want ≈ 4×11", got)
	}
	// The larger window still evaluates correctly after trimming.
	if q, _ := s.exec.Register("w10b", query.NewWindow(query.NewBase("temperatures"), 10)); q != nil {
		if err := s.exec.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		if q.LastResult().Len() != 4 {
			t.Fatalf("windowed result after trim = %d", q.LastResult().Len())
		}
	}
}

// TestNoTrimWithoutWindows: streams nobody windows are left intact.
func TestNoTrimWithoutWindows(t *testing.T) {
	s := newScenario(t)
	if err := s.exec.RunUntil(49); err != nil {
		t.Fatal(err)
	}
	temps, _ := s.exec.Relation("temperatures")
	if got := temps.EventCount(); got != 4*50 {
		t.Fatalf("untrimmed log = %d events, want 200", got)
	}
}

// TestUnregisterProducerWithConsumers: a query whose derived output is read
// by later-registered queries cannot be unregistered until its consumers are
// gone — tearing the producer out from under them would leave the consumers'
// base relation dangling.
func TestUnregisterProducerWithConsumers(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("hot", query.NewSelect(
		query.NewWindow(query.NewBase("temperatures"), 1),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(28))))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.Register("watcher", query.NewJoin(
		query.NewBase("contacts"), query.NewBase("hot"))); err != nil {
		t.Fatal(err)
	}
	err := s.exec.Unregister("hot")
	if err == nil {
		t.Fatal("unregistering a producer with a live consumer must fail")
	}
	if !strings.Contains(err.Error(), "watcher") || !strings.Contains(err.Error(), `"hot"`) {
		t.Fatalf("error should name the consumer and the derived relation: %v", err)
	}
	// The refused removal must leave the pair fully functional.
	if err := s.exec.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	// Consumer first, then producer: both succeed.
	if err := s.exec.Unregister("watcher"); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.Unregister("hot"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.exec.Relation("hot"); ok {
		t.Fatal("derived relation should disappear with its query")
	}
}

// TestUnregisterMaterializedProducer: the consumer guard keys on the INTO
// target, not the query name.
func TestUnregisterMaterializedProducer(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.RegisterWith("feed", query.NewWindow(query.NewBase("temperatures"), 2),
		cq.RegisterOptions{Into: "recent"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.Register("reader", query.NewBase("recent")); err != nil {
		t.Fatal(err)
	}
	err := s.exec.Unregister("feed")
	if err == nil || !strings.Contains(err.Error(), "reader") || !strings.Contains(err.Error(), `"recent"`) {
		t.Fatalf("unregister of INTO producer with consumer: %v", err)
	}
	if err := s.exec.Unregister("reader"); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.Unregister("feed"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.exec.Relation("recent"); ok {
		t.Fatal("INTO relation should disappear with its producer")
	}
}

// TestMaterializedIntoGuards: INTO names live in the same namespace as
// relations and queries, and collisions are rejected at registration time.
func TestMaterializedIntoGuards(t *testing.T) {
	s := newScenario(t)
	w := func() query.Node { return query.NewWindow(query.NewBase("temperatures"), 1) }
	if _, err := s.exec.RegisterWith("q1", w(), cq.RegisterOptions{Into: "contacts"}); err == nil {
		t.Fatal("INTO colliding with a base relation accepted")
	}
	if _, err := s.exec.RegisterWith("q1", w(), cq.RegisterOptions{Into: "sys$x"}); err == nil {
		t.Fatal("INTO with reserved sys$ prefix accepted")
	}
	if _, err := s.exec.RegisterWith("q1", w(), cq.RegisterOptions{Into: "q1"}); err == nil {
		t.Fatal("INTO equal to the query's own name accepted")
	}
	if _, err := s.exec.RegisterWith("q1", w(), cq.RegisterOptions{Retain: -1}); err == nil {
		t.Fatal("negative retention accepted")
	}
	if _, err := s.exec.RegisterWith("q1", w(), cq.RegisterOptions{Into: "mat1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.RegisterWith("q2", w(), cq.RegisterOptions{Into: "mat1"}); err == nil {
		t.Fatal("duplicate INTO target accepted")
	}
	if _, err := s.exec.RegisterWith("q2", w(), cq.RegisterOptions{Into: "q1"}); err == nil {
		t.Fatal("INTO colliding with a registered query name accepted")
	}
	if _, err := s.exec.Register("mat1", w()); err == nil {
		t.Fatal("query named after an existing INTO relation accepted")
	}
	if x, ok := s.exec.Relation("mat1"); !ok || x == nil {
		t.Fatal("INTO relation not visible")
	}
}

// TestDerivedRetentionDefault: a derived output nobody windows, infinite or
// finite, falls back to the engine-default retention instead of growing
// its log without bound. 10k-tick soak.
func TestDerivedRetentionDefault(t *testing.T) {
	s := newScenario(t)
	// A counter stream producing one fresh tuple per instant, so the derived
	// insertion stream emits continuously for the whole soak.
	ticks := stream.NewInfinite(schema.MustExtended("ticks", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "n", Type: value.Int}},
	}, nil))
	if err := s.exec.AddRelation(ticks); err != nil {
		t.Fatal(err)
	}
	s.exec.AddSource(func(at service.Instant) error {
		return ticks.Insert(at, value.Tuple{value.NewInt(int64(at))})
	})
	if _, err := s.exec.Register("feed", query.NewStream(
		query.NewWindow(query.NewBase("ticks"), 1),
		query.StreamInsertion)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.RegisterWith("snap", query.NewWindow(query.NewBase("ticks"), 1),
		cq.RegisterOptions{Into: "latest"}); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.RunUntil(9999); err != nil {
		t.Fatal(err)
	}
	feed, ok := s.exec.Relation("feed")
	if !ok {
		t.Fatal("derived relation not visible")
	}
	// 10000 instants flowed through (one event each); retention keeps only
	// the newest DefaultDerivedRetention instants.
	horizon := int(cq.DefaultDerivedRetention)
	if got := feed.EventCount(); got > horizon || got < horizon-8 {
		t.Fatalf("derived log = %d events, want ≈ %d", got, horizon)
	}
	// A finite output with no RETAIN that churns every instant (one insert
	// and one delete) keeps the same horizon: two events per instant.
	latest, ok := s.exec.Relation("latest")
	if !ok {
		t.Fatal("finite derived relation not visible")
	}
	if got := latest.EventCount(); got > 2*(horizon+2) || got < 2*(horizon-8) {
		t.Fatalf("finite derived log = %d events, want ≈ %d", got, 2*horizon)
	}
	if got := latest.Current(); len(got) != 1 || got[0][0].Int() != 9999 {
		t.Fatalf("finite derived relation = %v, want the newest tick", got)
	}
}

// TestWindowOverRetainedOutput: a window over a finite derived output holds
// back the output's retention, explicit or default. The delta window finds
// leaving tuples in the output's log; trimmed away, they would stay in the
// window forever. Both evaluators must match the window's definition — the
// distinct tuples inserted into the output in the last p instants — at
// every instant.
func TestWindowOverRetainedOutput(t *testing.T) {
	s := newScenario(t)
	w1 := func() query.Node { return query.NewWindow(query.NewBase("temperatures"), 1) }
	snap, err := s.exec.RegisterWith("snap", w1(), cq.RegisterOptions{Into: "latest", Retain: 5})
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := s.exec.RegisterWith("snap2", w1(), cq.RegisterOptions{Into: "latest2"})
	if err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name, rel string
		period    int
		producer  *cq.Query
	}{
		{"w20", "latest", 20, snap},
		{"w20b", "latest2", 20, snap2},
		{"w300b", "latest2", 300, snap2},
	}
	for _, r := range readers {
		if _, err := s.exec.Register(r.name, query.NewWindow(query.NewBase(r.rel), int64(r.period))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.exec.Register(r.name+"_naive", query.NewWindow(query.NewBase(r.rel), int64(r.period))); err != nil {
			t.Fatal(err)
		}
		if err := s.exec.SetNaiveEvaluation(r.name+"_naive", true); err != nil {
			t.Fatal(err)
		}
	}
	// One hot episode, so the outputs also change mid-run.
	s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 100, To: 149, Delta: 10})

	// lastInsert[producer][key] = the latest instant the producer's output
	// gained key, derived from its successive results rather than a log.
	lastInsert := map[*cq.Query]map[string]int{snap: {}, snap2: {}}
	prev := map[*cq.Query]map[string]bool{}
	for at := 0; at < 400; at++ {
		if _, err := s.exec.Tick(); err != nil {
			t.Fatal(err)
		}
		for p, last := range lastInsert {
			cur := map[string]bool{}
			for _, k := range sortedKeys(p.LastResult().Tuples()) {
				cur[k] = true
				if !prev[p][k] {
					last[k] = at
				}
			}
			prev[p] = cur
		}
		for _, r := range readers {
			var want []string
			for k, τ := range lastInsert[r.producer] {
				if τ > at-r.period {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			for _, name := range []string{r.name, r.name + "_naive"} {
				q, _ := s.exec.Query(name)
				if got := sortedKeys(q.LastResult().Tuples()); !keysEqual(got, want) {
					t.Fatalf("instant %d: %s = %d rows, want %d", at, name, len(got), len(want))
				}
			}
		}
	}
}

// TestExplicitRetainTrimsFiniteOutput: an explicit RETAIN bounds a finite
// materialized relation's event log tighter than DefaultDerivedRetention.
// Its content stays small, but each tick of the churning output appends an
// insert+delete pair, so only retention keeps the log bounded.
func TestExplicitRetainTrimsFiniteOutput(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.RegisterWith("snap", query.NewWindow(query.NewBase("temperatures"), 1),
		cq.RegisterOptions{Into: "latest", Retain: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.RunUntil(99); err != nil {
		t.Fatal(err)
	}
	latest, _ := s.exec.Relation("latest")
	if len(latest.Current()) == 0 {
		t.Fatal("materialized window should hold the newest readings")
	}
	// Per tick the 1-instant window fully churns: ≈4 deletes + 4 inserts.
	// RETAIN 5 keeps only the newest 5 instants of that log.
	if got := latest.EventCount(); got > 8*6 {
		t.Fatalf("retained log = %d events, want ≤ %d", got, 8*6)
	}
}

// TestExecutorParallelInvocation: β parallelism keeps continuous-query
// semantics (delta caches, actions) intact.
func TestExecutorParallelInvocation(t *testing.T) {
	s := newScenarioWith(t, cq.Options{Parallelism: 4})
	q, err := s.exec.Register("q3p", q3())
	if err != nil {
		t.Fatal(err)
	}
	s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 3, To: 6, Delta: 20})
	if err := s.exec.RunUntil(8); err != nil {
		t.Fatal(err)
	}
	if q.Actions().Len() != 3 {
		t.Fatalf("actions = %s", q.Actions())
	}
	total := len(s.dev.Messengers["email"].Outbox()) + len(s.dev.Messengers["jabber"].Outbox())
	if total != 3 {
		t.Fatalf("deliveries = %d, want 3 (once per contact per episode)", total)
	}
}
