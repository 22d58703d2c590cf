package cq_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// This file is the differential proof obligation for the incremental
// evaluator: two executors over two identical copies of the paper's
// pervasive environment run the SAME queries over the SAME randomized event
// history — one pinned to the naive re-evaluate-then-diff path (the
// oracle), one on the delta path (with random mid-run flips between the
// two). After every tick, every query's instantaneous result, per-tick
// insert/delete notifications, Definition 8 action set, and output-stream
// growth must agree exactly (Definition 9 equivalence). Seeds are fixed;
// a failure prints the seed, tick, and query so the run can be replayed.

// diffWorld is one independent copy of the environment: its own registry,
// devices, relations, and executor.
type diffWorld struct {
	exec     *cq.Executor
	reg      *service.Registry
	dev      *paperenv.Devices
	contacts *stream.XDRelation
	temps    *stream.XDRelation

	// last OnResult notification per query
	lastIns map[string][]value.Tuple
	lastDel map[string][]value.Tuple
}

func newDiffWorld(t *testing.T) *diffWorld {
	t.Helper()
	reg, dev := paperenv.MustRegistry()
	exec := cq.NewExecutor(reg, cq.Options{})

	contacts := stream.NewFinite(paperenv.ContactsSchema())
	for _, tu := range paperenv.Contacts().Tuples() {
		if err := contacts.Insert(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	cameras := stream.NewFinite(paperenv.CamerasSchema())
	for _, tu := range paperenv.Cameras().Tuples() {
		if err := cameras.Insert(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	temps := stream.NewInfinite(paperenv.TemperaturesSchema())
	for _, x := range []*stream.XDRelation{contacts, cameras, temps} {
		if err := exec.AddRelation(x); err != nil {
			t.Fatal(err)
		}
	}
	w := &diffWorld{
		exec: exec, reg: reg, dev: dev, contacts: contacts, temps: temps,
		lastIns: map[string][]value.Tuple{}, lastDel: map[string][]value.Tuple{},
	}
	exec.AddSource(func(at service.Instant) error {
		for _, ref := range reg.Implementing("getTemperature") {
			svc, err := reg.Lookup(ref)
			if err != nil {
				return err
			}
			sensor := svc.(*device.Sensor)
			err = temps.Insert(at, value.Tuple{
				value.NewService(ref),
				value.NewString(sensor.Location()),
				value.NewReal(sensor.TemperatureAt(at)),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return w
}

func (w *diffWorld) register(t *testing.T, name string, plan query.Node) {
	t.Helper()
	w.registerWith(t, name, plan, cq.RegisterOptions{})
}

func (w *diffWorld) registerWith(t *testing.T, name string, plan query.Node, opts cq.RegisterOptions) {
	t.Helper()
	opts.Degradation = resilience.SkipTuple
	q, err := w.exec.RegisterWith(name, plan, opts)
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	n := name
	q.OnResult = func(at service.Instant, res *algebra.XRelation, inserted, deleted []value.Tuple) {
		w.lastIns[n] = inserted
		w.lastDel[n] = deleted
	}
}

// diffPlans builds the query set for one seed: every operator kind of the
// algebra appears (σ, π, ρ, ⋈, ∪/∩/−, α const+attr, aggregate, W, S, β
// active and passive), with thresholds, periods, projections, and stream
// kinds drawn from the seed's rng so histories differ per seed.
func diffPlans(rng *rand.Rand) map[string]func() query.Node {
	period := func() int64 { return int64(1 + rng.Intn(3)) }
	threshold := func() float64 {
		return []float64{18, 20, 22, 25, 30, 35.5}[rng.Intn(6)]
	}
	hotWindow := func(th float64, p int64) query.Node {
		return query.NewSelect(
			query.NewWindow(query.NewBase("temperatures"), p),
			algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(th))))
	}
	coldWindow := func(th float64, p int64) query.Node {
		return query.NewSelect(
			query.NewWindow(query.NewBase("temperatures"), p),
			algebra.Compare(algebra.Attr("temperature"), algebra.Lt, algebra.Const(value.NewReal(th))))
	}
	setOps := []func(l, r query.Node) *query.SetOp{query.NewUnion, query.NewIntersect, query.NewDiff}
	streamKinds := []query.StreamKind{query.StreamInsertion, query.StreamDeletion, query.StreamHeartbeat}

	// Parameters are drawn NOW (same rng consumption every run of a seed).
	alertTh, alertP := threshold(), period()
	photoTh, photoP := threshold(), period()
	photoKind := streamKinds[rng.Intn(len(streamKinds))]
	aggP := period()
	setKind := setOps[rng.Intn(len(setOps))]
	setThLo, setThHi, setP := threshold(), threshold(), period()
	mixKind := setOps[rng.Intn(len(setOps))]
	mixTh, mixP := threshold(), period()
	mixStream := streamKinds[rng.Intn(len(streamKinds))]
	cascTh, cascP := threshold(), period()

	return map[string]func() query.Node{
		// Active β over a join: Table 4's Q3 shape (σ, W, ⋈, α const, β).
		"alerts": func() query.Node {
			return query.NewInvoke(
				query.NewAssignConst(
					query.NewJoin(query.NewBase("contacts"), hotWindow(alertTh, alertP)),
					"text", value.NewString("Hot!")),
				"sendMessage", "")
		},
		// Passive β over a rename-joined window, projected, streamed (ρ, π, S).
		"photos": func() query.Node {
			return query.NewStream(
				query.NewProject(
					query.NewInvoke(
						query.NewJoin(
							query.NewBase("cameras"),
							query.NewRename(coldWindow(photoTh, photoP), "location", "area")),
						"checkPhoto", ""),
					"area", "quality"),
				photoKind)
		},
		// Aggregation over the raw window (count/sum/min/max/mean).
		"climate": func() query.Node {
			return query.NewAggregate(
				query.NewWindow(query.NewBase("temperatures"), aggP),
				[]string{"location"},
				[]algebra.AggSpec{
					{Func: algebra.Count, As: "n"},
					{Func: algebra.Sum, Attr: "temperature", As: "total"},
					{Func: algebra.Min, Attr: "temperature", As: "low"},
					{Func: algebra.Max, Attr: "temperature", As: "high"},
					{Func: algebra.Mean, Attr: "temperature", As: "avg"},
				})
		},
		// A set operator between two differently-selected windows.
		"bands": func() query.Node {
			return setKind(hotWindow(setThLo, setP), hotWindow(setThHi, setP))
		},
		// α attr + active β over the churning contacts relation.
		"echo": func() query.Node {
			return query.NewInvoke(
				query.NewAssignAttr(query.NewBase("contacts"), "text", "address"),
				"sendMessage", "")
		},
		// Deeper mix: set op over projections of windows, streamed.
		"mixer": func() query.Node {
			return query.NewStream(
				mixKind(
					query.NewProject(query.NewWindow(query.NewBase("temperatures"), mixP), "location"),
					query.NewProject(hotWindow(mixTh, mixP), "location")),
				mixStream)
		},
		// Cascade producer: materialized INTO "xmat" (registered with
		// RegisterOptions by runDifferential; sorted order puts it before
		// its consumer, so "xmat" exists when "xread" compiles).
		"xfeed": func() query.Node {
			return hotWindow(cascTh, cascP)
		},
		// Cascade consumer: joins a base relation with the materialized
		// derived relation — the delta path rides the producer's per-tick
		// (inserts, deletes) instead of re-scanning "xmat"'s event log.
		"xread": func() query.Node {
			return query.NewJoin(query.NewBase("contacts"), query.NewBase("xmat"))
		},
	}
}

// intoOpts maps query names to registration options; queries not listed
// register plainly. Applied identically in both worlds.
var intoOpts = map[string]cq.RegisterOptions{
	"xfeed": {Into: "xmat"},
}

func sortedKeys(ts []value.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// messengerFactory recreates a withdrawn device so it can re-join the
// environment (fresh state in BOTH worlds, so they stay identical).
func remakeService(ref string) service.Service {
	switch ref {
	case "email":
		return device.NewMessenger("email")
	case "camera01":
		return device.NewCamera("camera01", "corridor", 8, 0.2)
	case "sensor07":
		return device.NewSensor("sensor07", "office", 22)
	}
	panic("unknown service " + ref)
}

func TestDifferentialDeltaVsNaive(t *testing.T) {
	const ticks = 220
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, seed, ticks)
		})
	}
}

func runDifferential(t *testing.T, seed int64, ticks int) {
	rng := rand.New(rand.NewSource(seed))
	fail := func(tick int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d tick %d: %s", seed, tick, fmt.Sprintf(format, args...))
	}

	wd := newDiffWorld(t) // delta (with random naive flips)
	wn := newDiffWorld(t) // naive oracle
	plans := diffPlans(rng)
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Each world gets its own AST instance (plans hold no state, but
		// per-node maps in the executor key on node identity).
		wd.registerWith(t, name, plans[name](), intoOpts[name])
		wn.registerWith(t, name, plans[name](), intoOpts[name])
		qd, _ := wd.exec.Query(name)
		if qd.EvaluationMode() != "delta" {
			t.Fatalf("seed %d: query %s has no delta form (%s)", seed, name, qd.DeltaReport())
		}
		if err := wn.exec.SetNaiveEvaluation(name, true); err != nil {
			t.Fatal(err)
		}
	}

	contactSeq := 0
	curContacts := append([]value.Tuple(nil), paperenv.Contacts().Tuples()...)
	withdrawn := map[string]int{} // ref → tick to re-register at
	naive := map[string]bool{}    // current pin state on the delta world

	sensorRefs := []string{"sensor01", "sensor06", "sensor07", "sensor22"}
	for tick := 0; tick < ticks; tick++ {
		now := wd.exec.Now()
		next := now + 1

		// --- Random stimuli, applied identically to both worlds. ---

		// Heat/cool a sensor (~1 in 3 ticks).
		if rng.Intn(3) == 0 {
			ref := sensorRefs[rng.Intn(len(sensorRefs))]
			ev := device.HeatEvent{
				From:  next,
				To:    next + service.Instant(rng.Intn(4)),
				Delta: float64(rng.Intn(31) - 10),
			}
			for _, w := range []*diffWorld{wd, wn} {
				if s := w.dev.Sensors[ref]; s != nil {
					s.Heat(ev)
				}
			}
		}

		// Contacts churn: insert (~1 in 4) and delete (~1 in 6).
		if rng.Intn(4) == 0 {
			contactSeq++
			messenger := []string{"email", "jabber"}[rng.Intn(2)]
			tu := value.Tuple{
				value.NewString(fmt.Sprintf("guest%02d", contactSeq)),
				value.NewString(fmt.Sprintf("guest%02d@example.org", contactSeq)),
				value.NewService(messenger),
			}
			curContacts = append(curContacts, tu)
			for _, w := range []*diffWorld{wd, wn} {
				if err := w.contacts.Insert(next, tu); err != nil {
					fail(tick, "contact insert: %v", err)
				}
			}
		}
		if len(curContacts) > 1 && rng.Intn(6) == 0 {
			i := rng.Intn(len(curContacts))
			tu := curContacts[i]
			curContacts = append(curContacts[:i], curContacts[i+1:]...)
			for _, w := range []*diffWorld{wd, wn} {
				if err := w.contacts.Delete(next, tu); err != nil {
					fail(tick, "contact delete: %v", err)
				}
			}
		}

		// Out-of-order timestamp attempt (~1 in 10): both worlds must
		// reject it identically and stay consistent.
		if now > 2 && rng.Intn(10) == 0 {
			tu := value.Tuple{
				value.NewService("sensor01"),
				value.NewString("corridor"),
				value.NewReal(99),
			}
			for _, w := range []*diffWorld{wd, wn} {
				if err := w.temps.Insert(now-2, tu); err == nil {
					fail(tick, "out-of-order insert accepted")
				}
			}
		}

		// Mid-run service withdrawal (~1 in 20) and re-registration.
		if len(withdrawn) == 0 && rng.Intn(20) == 0 {
			ref := []string{"email", "camera01", "sensor07"}[rng.Intn(3)]
			for _, w := range []*diffWorld{wd, wn} {
				if err := w.reg.Unregister(ref); err != nil {
					fail(tick, "withdraw %s: %v", ref, err)
				}
			}
			withdrawn[ref] = tick + 3 + rng.Intn(8)
		}
		for ref, reAt := range withdrawn {
			if tick >= reAt {
				for _, w := range []*diffWorld{wd, wn} {
					svc := remakeService(ref)
					if err := w.reg.Register(svc); err != nil {
						fail(tick, "re-register %s: %v", ref, err)
					}
					switch s := svc.(type) {
					case *device.Sensor:
						w.dev.Sensors[ref] = s
					case *device.Camera:
						w.dev.Cameras[ref] = s
					case *device.Messenger:
						w.dev.Messengers[ref] = s
					}
				}
				delete(withdrawn, ref)
			}
		}

		// Random evaluator flips on the delta world (~1 in 8): Definition 9
		// must hold across the seam in both directions.
		if rng.Intn(8) == 0 {
			name := names[rng.Intn(len(names))]
			naive[name] = !naive[name]
			if err := wd.exec.SetNaiveEvaluation(name, naive[name]); err != nil {
				t.Fatal(err)
			}
		}

		// --- Tick both worlds and compare everything. ---
		atD, errD := wd.exec.Tick()
		atN, errN := wn.exec.Tick()
		if (errD == nil) != (errN == nil) {
			fail(tick, "tick errors diverged: delta=%v naive=%v", errD, errN)
		}
		if errD != nil {
			fail(tick, "tick failed in both worlds: %v", errD)
		}
		if atD != atN {
			fail(tick, "instants diverged: %d vs %d", atD, atN)
		}

		for _, name := range names {
			qd, _ := wd.exec.Query(name)
			qn, _ := wn.exec.Query(name)
			rd, rn := qd.LastResult(), qn.LastResult()
			if (rd == nil) != (rn == nil) {
				fail(tick, "query %s: one result nil (delta=%v naive=%v)", name, rd, rn)
			}
			if rd != nil && !rd.EqualContents(rn) {
				fail(tick, "query %s (mode %s): results diverged\ndelta:\n%s\nnaive:\n%s",
					name, qd.EvaluationMode(), rd.Table(), rn.Table())
			}
			if got, want := sortedKeys(wd.lastIns[name]), sortedKeys(wn.lastIns[name]); !keysEqual(got, want) {
				fail(tick, "query %s: inserted diverged: %v vs %v", name, got, want)
			}
			if got, want := sortedKeys(wd.lastDel[name]), sortedKeys(wn.lastDel[name]); !keysEqual(got, want) {
				fail(tick, "query %s: deleted diverged: %v vs %v", name, got, want)
			}
			if !qd.Actions().Equal(qn.Actions()) {
				fail(tick, "query %s: action sets diverged (Definition 8)\ndelta: %s\nnaive: %s",
					name, qd.Actions(), qn.Actions())
			}
			if qd.Output().Infinite() {
				if gd, gn := qd.Output().EventCount(), qn.Output().EventCount(); gd != gn {
					fail(tick, "query %s: output stream grew differently: %d vs %d", name, gd, gn)
				}
			}
		}

		// Observable side effects must match too: messenger deliveries.
		for _, ref := range []string{"email", "jabber"} {
			md, mn := wd.dev.Messengers[ref], wn.dev.Messengers[ref]
			if len(md.Outbox()) != len(mn.Outbox()) {
				fail(tick, "messenger %s outbox diverged: %d vs %d", ref, len(md.Outbox()), len(mn.Outbox()))
			}
		}
	}

	// The delta path must actually have been exercised (the whole point).
	for _, name := range names {
		qd, _ := wd.exec.Query(name)
		deltaTicks, naiveTicks := qd.EvalCounts()
		if deltaTicks == 0 {
			t.Errorf("seed %d: query %s never ran on the delta path (naive ticks: %d)", seed, name, naiveTicks)
		}
	}
}
