package pems_test

import (
	"strings"
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/value"
)

// table1Prototypes declares the paper's Table 1 prototypes.
const table1Prototypes = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : (quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : (photo BLOB );
PROTOTYPE getTemperature( ) : (temperature REAL );
`

// scenarioTables declares contacts, cameras and surveillance with their
// Section 1.2/5.2 data.
const scenarioTables = `
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
EXTENDED RELATION cameras (
  camera SERVICE, area STRING, quality INTEGER VIRTUAL,
  delay REAL VIRTUAL, photo BLOB VIRTUAL
) USING BINDING PATTERNS (
  checkPhoto[camera] ( area ) : ( quality, delay ),
  takePhoto[camera] ( area, quality ) : ( photo )
);
EXTENDED RELATION surveillance ( name STRING, location STRING );
INSERT INTO contacts VALUES
  ("Nicolas", "nicolas@elysee.fr", email),
  ("Carla", "carla@elysee.fr", email),
  ("Francois", "francois@im.gouv.fr", jabber);
INSERT INTO cameras VALUES
  (camera01, "corridor"), (camera02, "office"), (webcam07, "roof");
INSERT INTO surveillance VALUES
  ("Carla", "office"), ("Nicolas", "corridor"), ("Francois", "roof");
`

// localDevices registers the paper's nine devices directly in the central
// registry (single-process deployment).
func localDevices(t *testing.T, p *pems.PEMS) (sensors map[string]*device.Sensor, messengers map[string]*device.Messenger, cameras map[string]*device.Camera) {
	t.Helper()
	sensors = map[string]*device.Sensor{}
	messengers = map[string]*device.Messenger{}
	cameras = map[string]*device.Camera{}
	for _, s := range []struct {
		ref, loc string
		base     float64
	}{
		{"sensor01", "corridor", 19}, {"sensor06", "office", 21},
		{"sensor07", "office", 22}, {"sensor22", "roof", 15},
	} {
		d := device.NewSensor(s.ref, s.loc, s.base)
		sensors[s.ref] = d
		if err := p.Registry().Register(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"email", "jabber"} {
		d := device.NewMessenger(m)
		messengers[m] = d
		if err := p.Registry().Register(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		ref, area string
		q         int64
	}{{"camera01", "corridor", 8}, {"camera02", "office", 7}, {"webcam07", "roof", 5}} {
		d := device.NewCamera(c.ref, c.area, c.q, 0.2)
		cameras[c.ref] = d
		if err := p.Registry().Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return sensors, messengers, cameras
}

func locationOf(sensors map[string]*device.Sensor) func(string) []value.Value {
	return func(ref string) []value.Value {
		if s, ok := sensors[ref]; ok {
			return []value.Value{value.NewString(s.Location())}
		}
		return []value.Value{value.NewString("unknown")}
	}
}

func newScenarioPEMS(t *testing.T, opts ...pems.Option) (*pems.PEMS, map[string]*device.Sensor, map[string]*device.Messenger, map[string]*device.Camera) {
	t.Helper()
	p := pems.New(opts...)
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	sensors, messengers, cameras := localDevices(t, p)
	if err := p.ExecuteDDL(scenarioTables); err != nil {
		t.Fatal(err)
	}
	locAttr := []schema.Attribute{{Name: "location", Type: value.String}}
	if _, err := p.AddPollStream("temperatures", "getTemperature", "sensor", locAttr, locationOf(sensors)); err != nil {
		t.Fatal(err)
	}
	return p, sensors, messengers, cameras
}

// TestScenarioSurveillance reproduces the paper's Section 5.2 experiment:
// four XD-Relations, a continuous query alerting the manager of an area
// when its temperature exceeds the threshold, and live integration of a
// newly discovered sensor without stopping the query.
func TestScenarioSurveillance(t *testing.T) {
	p, sensors, messengers, _ := newScenarioPEMS(t)
	// Alert the area's manager when its temperature exceeds 28 °C
	// ("Carla wants to know when the temperature in the office exceeds 28").
	const alertQ = `invoke[sendMessage](assign[text := "Temperature alert!"](
		join(contacts, join(surveillance,
			select[temperature > 28.0](window[1](temperatures))))))`
	q, err := p.RegisterQuery("alerts", alertQ, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Executor().RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(messengers["email"].Outbox()) != 0 {
		t.Fatal("no alerts expected while temperatures are nominal")
	}
	// Heat the office sensor over the threshold for a while.
	sensors["sensor06"].Heat(device.HeatEvent{From: 4, To: 20, Delta: 10}) // 21 → 31 °C
	if err := p.Executor().RunUntil(8); err != nil {
		t.Fatal(err)
	}
	emails := messengers["email"].Outbox()
	// Carla manages the office → exactly one alert to her, fired once.
	if len(emails) != 1 || emails[0].Address != "carla@elysee.fr" {
		t.Fatalf("email outbox = %v", emails)
	}
	if len(messengers["jabber"].Outbox()) != 0 {
		t.Fatal("only the office manager should be alerted")
	}
	if q.Actions().Len() != 1 {
		t.Fatalf("actions = %s", q.Actions())
	}

	// §5.2 live discovery: a new hot sensor in the roof area appears; the
	// roof manager (Francois, via jabber) is alerted without re-registering
	// the query.
	hot := device.NewSensor("sensor99", "roof", 35)
	if err := p.Registry().Register(hot); err != nil {
		t.Fatal(err)
	}
	sensors["sensor99"] = hot
	if err := p.Executor().RunUntil(12); err != nil {
		t.Fatal(err)
	}
	jabbers := messengers["jabber"].Outbox()
	if len(jabbers) != 1 || jabbers[0].Address != "francois@im.gouv.fr" {
		t.Fatalf("jabber outbox = %v", jabbers)
	}
}

// TestScenarioSurveillancePhotos extends the scenario with the camera leg:
// a photo stream of too-cold areas (Q4 style) over the DDL-declared
// environment.
func TestScenarioSurveillancePhotos(t *testing.T) {
	p, sensors, _, cameras := newScenarioPEMS(t)
	const photoQ = `stream[insertion](project[photo](invoke[takePhoto](invoke[checkPhoto](
		join(cameras, rename[location -> area](
			select[temperature < 12.0](window[1](temperatures))))))))`
	q, err := p.RegisterQuery("photos", photoQ, false)
	if err != nil {
		t.Fatal(err)
	}
	sensors["sensor22"].Heat(device.HeatEvent{From: 2, To: 5, Delta: -5}) // roof 15 → 10 °C
	if err := p.Executor().RunUntil(7); err != nil {
		t.Fatal(err)
	}
	if q.Output().EventCount() != 1 {
		t.Fatalf("photo stream events = %d, want 1", q.Output().EventCount())
	}
	if cameras["webcam07"].Shots() != 1 {
		t.Fatal("roof camera should have shot once")
	}
}

// TestScenarioRSS reproduces the paper's second Section 5.2 experiment:
// RSS wrapper services polled into a stream, keyword filtering over a
// one-hour window, and forwarding matches to a contact.
func TestScenarioRSS(t *testing.T) {
	p := pems.New()
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	if err := p.Registry().RegisterPrototype(device.GetItemsProto()); err != nil {
		t.Fatal(err)
	}
	_, messengers, _ := localDevices(t, p)
	if err := p.ExecuteDDL(scenarioTables); err != nil {
		t.Fatal(err)
	}
	// Three newspapers publishing one item every 5 instants; every third
	// item mentions Obama.
	for _, f := range []struct{ ref, name string }{
		{"lemonde", "Le Monde"}, {"lefigaro", "Le Figaro"}, {"cnn", "CNN Europe"},
	} {
		if err := p.Registry().Register(device.NewFeed(f.ref, f.name, 5, []string{"Obama"})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddFeedStream("news"); err != nil {
		t.Fatal(err)
	}
	// One-hour window (3600 instants) over matching items.
	watch, err := p.RegisterQuery("obamaNews",
		`select[title contains "Obama"](window[3600](news))`, false)
	if err != nil {
		t.Fatal(err)
	}
	// Forward matches to Carla.
	fwd, err := p.RegisterQuery("forward",
		`invoke[sendMessage](assign[text := title](join(
			select[name = "Carla"](contacts),
			project[title](select[title contains "Obama"](window[3600](news))))))`, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Executor().RunUntil(30); err != nil {
		t.Fatal(err)
	}
	// Items per feed by tick 30: seq 0..6 (period 5); matching seqs 0, 3, 6
	// → 3 matches per feed, 9 total.
	if got := watch.LastResult().Len(); got != 9 {
		t.Fatalf("window result = %d matching items, want 9", got)
	}
	out := messengers["email"].Outbox()
	if len(out) != 9 {
		t.Fatalf("forwarded messages = %d, want 9 (one per item, once)", len(out))
	}
	for _, d := range out {
		if d.Address != "carla@elysee.fr" || !strings.Contains(d.Text, "Obama") {
			t.Fatalf("delivery = %+v", d)
		}
	}
	_ = fwd
}

// TestFigure1Architecture reproduces Figure 1 over real TCP: a core PEMS
// discovers two Local ERM nodes (sensors on one, actuators on the other),
// and a continuous query drives remote invocations end to end.
func TestFigure1Architecture(t *testing.T) {
	bus := discovery.NewInProcBus()
	p := pems.New(pems.WithDiscovery(bus))
	defer p.Close()
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}

	// Local ERM A: temperature sensors.
	nodeA := discovery.NewNode("node-sensors", bus)
	if err := nodeA.Registry().RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	officeSensor := device.NewSensor("sensor06", "office", 21)
	if err := nodeA.Registry().Register(officeSensor); err != nil {
		t.Fatal(err)
	}
	if err := nodeA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer nodeA.Stop()

	// Local ERM B: messengers.
	nodeB := discovery.NewNode("node-actuators", bus)
	if err := nodeB.Registry().RegisterPrototype(device.SendMessageProto()); err != nil {
		t.Fatal(err)
	}
	email := device.NewMessenger("email")
	if err := nodeB.Registry().Register(email); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer nodeB.Stop()

	// Wait for discovery to register both remote services centrally.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.Registry().Refs()) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.Registry().Refs(); len(got) != 2 {
		t.Fatalf("discovered services = %v", got)
	}

	// Declare the environment and a continuous alert query.
	if err := p.ExecuteDDL(`
		EXTENDED RELATION contacts (
		  name STRING, address STRING, text STRING VIRTUAL,
		  messenger SERVICE, sent BOOLEAN VIRTUAL
		) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
		INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);`); err != nil {
		t.Fatal(err)
	}
	locAttr := []schema.Attribute{{Name: "location", Type: value.String}}
	if _, err := p.AddPollStream("temperatures", "getTemperature", "sensor", locAttr,
		func(string) []value.Value { return []value.Value{value.NewString("office")} }); err != nil {
		t.Fatal(err)
	}
	q, err := p.RegisterQuery("alerts",
		`invoke[sendMessage](assign[text := "Hot!"](join(contacts,
			select[temperature > 28.0](window[1](temperatures)))))`, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Executor().RunUntil(2); err != nil {
		t.Fatal(err)
	}
	officeSensor.Heat(device.HeatEvent{From: 3, To: 10, Delta: 15})
	if err := p.Executor().RunUntil(6); err != nil {
		t.Fatal(err)
	}
	// The alert crossed the wire to node B's messenger.
	out := email.Outbox()
	if len(out) != 1 || out[0].Address != "carla@elysee.fr" || out[0].Text != "Hot!" {
		t.Fatalf("remote outbox = %v", out)
	}
	if q.Actions().Len() != 1 {
		t.Fatalf("actions = %s", q.Actions())
	}
	// Sensor node withdrawal stops the stream but not the system.
	_ = nodeA.Stop()
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.Registry().Implementing("getTemperature")) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Executor().RunUntil(9); err != nil {
		t.Fatal(err)
	}
	if len(email.Outbox()) != 1 {
		t.Fatal("no further alerts after the sensor node left")
	}
}

func TestDiscoveryRelation(t *testing.T) {
	p, sensors, _, _ := newScenarioPEMS(t)
	rel, err := p.AddDiscoveryRelation(
		schema.MustExtended("livesensors", []schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		}, nil),
		"sensor", "getTemperature", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Executor().RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if got := len(rel.Current()); got != 4 {
		t.Fatalf("discovery relation rows = %d, want 4", got)
	}
	// A sensor disappears.
	if err := p.Registry().Unregister("sensor22"); err != nil {
		t.Fatal(err)
	}
	delete(sensors, "sensor22")
	if err := p.Executor().RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if got := len(rel.Current()); got != 3 {
		t.Fatalf("after withdrawal rows = %d, want 3", got)
	}
	// Validation paths.
	if _, err := p.AddDiscoveryRelation(schema.MustExtended("bad", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "x", Type: value.Int}, Virtual: true},
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
	}, nil), "x", "getTemperature", nil); err == nil {
		t.Fatal("virtual service attribute accepted")
	}
	if _, err := p.AddDiscoveryRelation(schema.MustExtended("bad2", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
	}, nil), "sensor", "ghostProto", nil); err == nil {
		t.Fatal("unknown prototype accepted")
	}
}

func TestOneShotQueries(t *testing.T) {
	p, _, messengers, _ := newScenarioPEMS(t)
	// Q1 one-shot over the DDL environment.
	res, err := p.OneShot(`invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 || res.Actions.Len() != 2 {
		t.Fatalf("one-shot Q1 = %d rows, %s", res.Relation.Len(), res.Actions)
	}
	if len(messengers["email"].Outbox()) != 1 {
		t.Fatal("one-shot side effects missing")
	}
	// Parse errors and planning errors are reported.
	if _, err := p.OneShot(`select[`); err == nil {
		t.Fatal("bad SAL accepted")
	}
	if _, err := p.OneShot(`select[ghost = 1](contacts)`); err == nil {
		t.Fatal("bad formula accepted")
	}
}

func TestRegisterQueryWithOptimization(t *testing.T) {
	p, sensors, messengers, _ := newScenarioPEMS(t)
	_ = sensors
	// A query with a pushable selection above a passive invoke — registered
	// with optimization, it must behave identically.
	q, err := p.RegisterQuery("opt",
		`select[area = "office"](invoke[checkPhoto](cameras))`, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Plan().String(), `invoke[checkPhoto](select[area = "office"]`) {
		t.Fatalf("selection not pushed: %s", q.Plan())
	}
	if err := p.Executor().RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if q.LastResult().Len() != 1 {
		t.Fatalf("optimized result = %d", q.LastResult().Len())
	}
	_ = messengers
}

func TestDDLStampedAtNextTick(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	if err := p.Executor().RunUntil(5); err != nil {
		t.Fatal(err)
	}
	// Insert while the clock is at 5: visible at tick 6.
	if err := p.ExecuteDDL(`INSERT INTO contacts VALUES ("Zoe", "zoe@x", email);`); err != nil {
		t.Fatal(err)
	}
	res, err := p.OneShot(`project[name](contacts)`) // snapshot at instant 5
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 3 {
		t.Fatalf("insert visible too early: %d rows", res.Relation.Len())
	}
	if err := p.Executor().RunUntil(6); err != nil {
		t.Fatal(err)
	}
	res, _ = p.OneShot(`project[name](contacts)`)
	if res.Relation.Len() != 4 {
		t.Fatalf("insert not visible at next tick: %d rows", res.Relation.Len())
	}
}
