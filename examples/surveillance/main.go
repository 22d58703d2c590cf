// Surveillance: the paper's Section 5.2 temperature-surveillance
// experiment, end to end — four XD-Relations (contacts, cameras,
// surveillance, temperatures stream), a continuous alert query notifying
// the manager of an overheating area, a photo stream of too-cold areas,
// a heat wave, and a new sensor discovered live while the queries run.
//
//	go run ./examples/surveillance
package main

import (
	"fmt"
	"log"

	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

const environment = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : (quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : (photo BLOB );
PROTOTYPE getTemperature( ) : (temperature REAL );
`

const tables = `
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
INSERT INTO cameras VALUES (camera01, "corridor"), (camera02, "office"), (webcam07, "roof");
INSERT INTO surveillance VALUES ("Carla", "office"), ("Nicolas", "corridor"), ("Francois", "roof");
`

func main() {
	p := pems.New()
	defer p.Close()
	if err := p.ExecuteDDL(environment); err != nil {
		log.Fatal(err)
	}

	// Devices.
	sensors := map[string]*device.Sensor{}
	for _, s := range []struct {
		ref, loc string
		base     float64
	}{
		{"sensor01", "corridor", 19}, {"sensor06", "office", 21},
		{"sensor07", "office", 22}, {"sensor22", "roof", 15},
	} {
		d := device.NewSensor(s.ref, s.loc, s.base)
		sensors[s.ref] = d
		must(p.Registry().Register(d))
	}
	email := device.NewMessenger("email")
	jabber := device.NewMessenger("jabber")
	must(p.Registry().Register(email))
	must(p.Registry().Register(jabber))
	for _, c := range []struct {
		ref, area string
		q         int64
	}{{"camera01", "corridor", 8}, {"camera02", "office", 7}, {"webcam07", "roof", 5}} {
		must(p.Registry().Register(device.NewCamera(c.ref, c.area, c.q, 0.2)))
	}
	must(p.ExecuteDDL(tables))

	// The temperatures stream polls every sensor known to the registry —
	// including ones discovered later.
	_, err := p.AddPollStream("temperatures", "getTemperature", "sensor",
		[]schema.Attribute{{Name: "location", Type: value.String}},
		func(ref string) []value.Value {
			if s, ok := sensors[ref]; ok {
				return []value.Value{value.NewString(s.Location())}
			}
			return []value.Value{value.NewString("unknown")}
		})
	must(err)

	// Continuous query 1: alert the manager of an area above 28 °C.
	alerts, err := p.RegisterQuery("alerts",
		`invoke[sendMessage](assign[text := "Temperature alert!"](join(contacts,
			join(surveillance, select[temperature > 28.0](window[1](temperatures))))))`, true)
	must(err)
	alerts.OnResult = func(at service.Instant, _ *algebra.XRelation, inserted, _ []value.Tuple) {
		for range inserted {
			fmt.Printf("t=%2d  ALERT dispatched\n", at)
		}
	}

	// Continuous query 2: a photo stream of areas below 12 °C.
	photos, err := p.RegisterQuery("photos",
		`stream[insertion](project[photo](invoke[takePhoto](invoke[checkPhoto](
			join(cameras, rename[location -> area](
				select[temperature < 12.0](window[1](temperatures))))))))`, false)
	must(err)
	photos.OnResult = func(at service.Instant, res *algebra.XRelation, _, _ []value.Tuple) {
		for _, tu := range res.Tuples() {
			fmt.Printf("t=%2d  PHOTO captured (%d bytes)\n", at, len(tu[0].Blob()))
		}
	}

	fmt.Println("== running: heat wave in the office at t=5..9, cold snap on the roof at t=12..13")
	sensors["sensor06"].Heat(device.HeatEvent{From: 5, To: 9, Delta: 10})   // office → 31 °C
	sensors["sensor22"].Heat(device.HeatEvent{From: 12, To: 13, Delta: -5}) // roof → 10 °C
	must(p.Executor().RunUntil(10))

	// §5.2 live discovery: a new sensor joins while the queries run.
	fmt.Println("== t=10: new sensor99 (roof, already hot at 35 °C) joins the environment")
	hot := device.NewSensor("sensor99", "roof", 35)
	sensors["sensor99"] = hot
	must(p.Registry().Register(hot))
	must(p.Executor().RunUntil(15))

	fmt.Println("\n== outboxes")
	for _, d := range email.Outbox() {
		fmt.Printf("  email  t=%2d  %s ← %q\n", d.At, d.Address, d.Text)
	}
	for _, d := range jabber.Outbox() {
		fmt.Printf("  jabber t=%2d  %s ← %q\n", d.At, d.Address, d.Text)
	}
	fmt.Printf("\nphoto stream: %d photo(s); cumulative action set: %s\n",
		photos.Output().EventCount(), alerts.Actions())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
