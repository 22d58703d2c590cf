package cq_test

import (
	"testing"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// scenario wires the paper's §5.2 environment: contacts/cameras as finite
// XD-Relations, temperatures as an infinite stream pumped from the
// simulated sensors at every tick.
type scenario struct {
	exec  *cq.Executor
	reg   *service.Registry
	dev   *paperenv.Devices
	temps *stream.XDRelation
}

func newScenario(t *testing.T) *scenario {
	t.Helper()
	return newScenarioWith(t, cq.Options{})
}

// newScenarioWith is newScenario over an executor built with opts.
func newScenarioWith(t *testing.T, opts cq.Options) *scenario {
	t.Helper()
	reg, dev := paperenv.MustRegistry()
	exec := cq.NewExecutor(reg, opts)

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
	s := &scenario{exec: exec, reg: reg, dev: dev, temps: temps}
	exec.AddSource(func(at service.Instant) error {
		// Poll every sensor currently known to the registry — this is what
		// lets newly discovered sensors join the stream live (§5.2).
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
	return s
}

// q3 is Table 4's Q3: when a temperature exceeds 35.5 °C, send "Hot!" to
// the contacts.
func q3() query.Node {
	return query.NewInvoke(
		query.NewAssignConst(
			query.NewJoin(
				query.NewBase("contacts"),
				query.NewSelect(
					query.NewWindow(query.NewBase("temperatures"), 1),
					algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(35.5))))),
			"text", value.NewString("Hot!")),
		"sendMessage", "")
}

// q4 is Table 4's Q4: when a temperature goes below 12.0 °C, take a photo
// of the area; the result is a photo stream.
func q4() query.Node {
	return query.NewStream(
		query.NewProject(
			query.NewInvoke(
				query.NewInvoke(
					query.NewJoin(
						query.NewBase("cameras"),
						query.NewRename(
							query.NewSelect(
								query.NewWindow(query.NewBase("temperatures"), 1),
								algebra.Compare(algebra.Attr("temperature"), algebra.Lt, algebra.Const(value.NewReal(12.0)))),
							"location", "area")),
					"checkPhoto", ""),
				"takePhoto", ""),
			"photo"),
		query.StreamInsertion)
}

func TestQ3HotAlertFiresOncePerEpisode(t *testing.T) {
	s := newScenario(t)
	q, err := s.exec.Register("q3", q3())
	if err != nil {
		t.Fatal(err)
	}
	// Heat sensor06 (office, base 21) by +20 over instants [5,8] → 41 °C.
	s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 5, To: 8, Delta: 20})

	if err := s.exec.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if got := len(s.dev.Messengers["email"].Outbox()); got != 0 {
		t.Fatalf("no alerts expected before the heat event, got %d", got)
	}
	if err := s.exec.RunUntil(8); err != nil {
		t.Fatal(err)
	}
	emails := s.dev.Messengers["email"].Outbox()
	jabbers := s.dev.Messengers["jabber"].Outbox()
	// 3 contacts alerted exactly ONCE despite 4 hot instants: the reading
	// tuple persists across the window ticks and the invocation operator
	// only fires for newly inserted tuples (Section 4.2).
	if len(emails) != 2 || len(jabbers) != 1 {
		t.Fatalf("outboxes = %d emails / %d jabbers, want 2/1", len(emails), len(jabbers))
	}
	if emails[0].Text != "Hot!" {
		t.Fatalf("alert text = %q", emails[0].Text)
	}
	if q.Actions().Len() != 3 {
		t.Fatalf("action set = %s", q.Actions())
	}
	// After cooling, a second episode re-alerts.
	s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 12, To: 12, Delta: 20})
	if err := s.exec.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	if got := len(s.dev.Messengers["email"].Outbox()); got != 4 {
		t.Fatalf("second episode should re-alert: %d emails, want 4", got)
	}
}

func TestQ4PhotoStream(t *testing.T) {
	s := newScenario(t)
	q, err := s.exec.Register("q4", q4())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Output().Infinite() {
		t.Fatal("Q4's result must be an infinite XD-Relation (root is S[insertion])")
	}
	// Cool sensor22 (roof, base 15) by −5 over [3,4] → 10 °C < 12.
	s.dev.Sensors["sensor22"].Heat(device.HeatEvent{From: 3, To: 4, Delta: -5})
	if err := s.exec.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	photos := q.Output()
	if photos.EventCount() != 1 {
		t.Fatalf("photo stream has %d events, want 1 (delta invocation)", photos.EventCount())
	}
	shot := photos.Current()[0][0]
	if shot.Kind() != value.Blob || len(shot.Blob()) == 0 {
		t.Fatalf("photo = %v", shot)
	}
	if s.dev.Cameras["webcam07"].Shots() != 1 {
		t.Fatal("roof webcam should have taken exactly one photo")
	}
	if s.dev.Cameras["camera01"].Shots()+s.dev.Cameras["camera02"].Shots() != 0 {
		t.Fatal("other cameras must not shoot")
	}
	// All prototypes involved are passive → empty action set (Example 7).
	if q.Actions().Len() != 0 {
		t.Fatalf("Q4 actions = %s", q.Actions())
	}
}

func TestLiveSensorDiscovery(t *testing.T) {
	// §5.2: "new temperature sensors have been dynamically discovered and
	// integrated in the temperature stream without stopping the query".
	s := newScenario(t)
	q, err := s.exec.Register("q3", q3())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.exec.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	// A brand-new, already-hot sensor joins the environment.
	hot := device.NewSensor("sensor99", "basement", 40)
	if err := s.reg.Register(hot); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if got := len(s.dev.Messengers["email"].Outbox()); got != 2 {
		t.Fatalf("new sensor should trigger alerts without re-registering the query: %d emails", got)
	}
	if q.Actions().Len() != 3 {
		t.Fatalf("actions = %s", q.Actions())
	}
}

func TestWindowAccumulation(t *testing.T) {
	s := newScenario(t)
	// Count readings visible in a 3-instant window: 4 sensors × 3 instants.
	q, err := s.exec.Register("w3", query.NewWindow(query.NewBase("temperatures"), 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.exec.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	// Readings are identical across instants for constant sensors → the
	// set-semantics X-Relation collapses them to 4.
	if q.LastResult().Len() != 4 {
		t.Fatalf("window result = %d tuples, want 4", q.LastResult().Len())
	}
}

func TestStreamKindsOverFiniteRelation(t *testing.T) {
	reg, _ := paperenv.MustRegistry()
	exec := cq.NewExecutor(reg, cq.Options{})
	contacts := stream.NewFinite(paperenv.ContactsSchema())
	if err := exec.AddRelation(contacts); err != nil {
		t.Fatal(err)
	}
	ins, _ := exec.Register("ins", query.NewStream(query.NewBase("contacts"), query.StreamInsertion))
	del, _ := exec.Register("del", query.NewStream(query.NewBase("contacts"), query.StreamDeletion))
	hb, _ := exec.Register("hb", query.NewStream(query.NewBase("contacts"), query.StreamHeartbeat))

	row := paperenv.Contacts().Tuples()[0]
	if _, err := exec.Tick(); err != nil { // instant 0: empty
		t.Fatal(err)
	}
	if err := contacts.Insert(1, row); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Tick(); err != nil { // instant 1: +row
		t.Fatal(err)
	}
	if ins.LastResult().Len() != 1 || del.LastResult().Len() != 0 || hb.LastResult().Len() != 1 {
		t.Fatalf("after insert: ins=%d del=%d hb=%d", ins.LastResult().Len(), del.LastResult().Len(), hb.LastResult().Len())
	}
	if _, err := exec.Tick(); err != nil { // instant 2: unchanged
		t.Fatal(err)
	}
	if ins.LastResult().Len() != 0 || hb.LastResult().Len() != 1 {
		t.Fatalf("steady state: ins=%d hb=%d", ins.LastResult().Len(), hb.LastResult().Len())
	}
	if err := contacts.Delete(3, row); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Tick(); err != nil { // instant 3: -row
		t.Fatal(err)
	}
	if del.LastResult().Len() != 1 || hb.LastResult().Len() != 0 {
		t.Fatalf("after delete: del=%d hb=%d", del.LastResult().Len(), hb.LastResult().Len())
	}
}

func TestFiniteOutputDeltas(t *testing.T) {
	s := newScenario(t)
	// Finite result: hot readings with location.
	q, err := s.exec.Register("hot", query.NewSelect(
		query.NewWindow(query.NewBase("temperatures"), 1),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(35.5)))))
	if err != nil {
		t.Fatal(err)
	}
	var lastInserted, lastDeleted int
	q.OnResult = func(_ service.Instant, _ *algebra.XRelation, inserted, deleted []value.Tuple) {
		lastInserted, lastDeleted = len(inserted), len(deleted)
	}
	s.dev.Sensors["sensor06"].Heat(device.HeatEvent{From: 2, To: 3, Delta: 20})
	if err := s.exec.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if lastInserted != 1 || lastDeleted != 0 {
		t.Fatalf("at heat start: +%d -%d", lastInserted, lastDeleted)
	}
	if q.Output().Infinite() {
		t.Fatal("finite query output must be finite")
	}
	if err := s.exec.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if lastDeleted != 1 {
		t.Fatalf("at heat end: -%d, want 1", lastDeleted)
	}
	if len(q.Output().Current()) != 0 {
		t.Fatal("output relation should be empty after cooling")
	}
}

func TestUnwindowedStreamRejected(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("bad", query.NewBase("temperatures")); err == nil {
		t.Fatal("unwindowed stream accepted")
	}
	if _, err := s.exec.Register("bad2", query.NewSelect(query.NewBase("temperatures"), algebra.True{})); err == nil {
		t.Fatal("nested unwindowed stream accepted")
	}
	// Window over non-base is rejected.
	if _, err := s.exec.Register("bad3", query.NewWindow(query.NewSelect(query.NewBase("temperatures"), algebra.True{}), 1)); err == nil {
		t.Fatal("window over derived expression accepted")
	}
}

func TestRegistrationLifecycle(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("q", q3()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.Register("q", q3()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.exec.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.Unregister("q"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if _, err := s.exec.Register("bad", query.NewBase("ghost")); err == nil {
		t.Fatal("query over unknown relation accepted")
	}
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	if err := s.exec.AddRelation(x); err != nil {
		t.Fatal(err)
	}
	if err := s.exec.AddRelation(x); err == nil {
		t.Fatal("duplicate relation accepted")
	}
}

func TestMemoizationAcrossQueriesWithinTick(t *testing.T) {
	// Two queries over the same sensors: within one tick, each query has its
	// own context/memo, so physical invocations happen per query — but the
	// delta cache keeps each query from re-invoking across ticks.
	reg, dev := paperenv.MustRegistry()
	exec := cq.NewExecutor(reg, cq.Options{})
	sensors := stream.NewFinite(paperenv.SensorsSchema())
	for _, tu := range paperenv.Sensors().Tuples() {
		_ = sensors.Insert(0, tu)
	}
	if err := exec.AddRelation(sensors); err != nil {
		t.Fatal(err)
	}
	q := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	if _, err := exec.Register("t1", q); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(9); err != nil {
		t.Fatal(err)
	}
	// 4 sensors invoked at instant 0 only; ticks 1..9 reuse the cache.
	var total int64
	for _, s := range dev.Sensors {
		total += s.Invocations()
	}
	if total != 4 {
		t.Fatalf("physical invocations = %d, want 4 (delta semantics)", total)
	}
}
