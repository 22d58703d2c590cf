// Dashboard: staged continuous queries in Serena SQL — a windowed
// per-location mean-temperature view, a second query alerting on the view,
// and a live textual dashboard. Demonstrates derived relations (continuous
// views), aggregation and the SQL surface working together.
//
//	go run ./examples/dashboard
package main

import (
	"fmt"
	"log"

	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

func main() {
	p := pems.New()
	defer p.Close()
	must(p.ExecuteDDL(`
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE getTemperature( ) : (temperature REAL );
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);`))

	email := device.NewMessenger("email")
	must(p.Registry().Register(email))
	sensors := map[string]*device.Sensor{}
	for _, s := range []struct {
		ref, loc string
		base     float64
	}{
		{"sensor01", "corridor", 19}, {"sensor06", "office", 21},
		{"sensor07", "office", 22}, {"sensor22", "roof", 15},
	} {
		d := device.NewSensor(s.ref, s.loc, s.base, device.WithNoise(0.3))
		sensors[s.ref] = d
		must(p.Registry().Register(d))
	}
	_, err := p.AddPollStream("temperatures", "getTemperature", "sensor",
		[]schema.Attribute{{Name: "location", Type: value.String}},
		func(ref string) []value.Value {
			return []value.Value{value.NewString(sensors[ref].Location())}
		})
	must(err)

	// Stage 1 (continuous view "means"): mean temperature per location over
	// a 5-instant window.
	means, err := p.RegisterQuery("means",
		`SELECT location, mean(temperature) AS avgtemp FROM temperatures[5] GROUP BY location`, false)
	must(err)

	// Stage 2: alert Carla when any location's mean exceeds 27 °C — reading
	// the derived view by name.
	_, err = p.RegisterQuery("alerts",
		`SELECT * FROM contacts NATURAL JOIN means
		 SET text := "Mean temperature alert!"
		 USING sendMessage
		 WHERE avgtemp > 27.0`, false)
	must(err)

	fmt.Println("t   corridor   office   roof      (mean over last 5 instants)")
	sensors["sensor06"].Heat(device.HeatEvent{From: 8, To: 12, Delta: 12})
	for tick := 0; tick <= 16; tick++ {
		must(p.Executor().RunUntil(service.Instant(tick)))
		row := map[string]float64{}
		sch := means.LastResult().Schema()
		li, ai := sch.RealIndex("location"), sch.RealIndex("avgtemp")
		for _, tu := range means.LastResult().Tuples() {
			row[tu[li].Str()] = tu[ai].Real()
		}
		fmt.Printf("%-3d %-10.2f %-8.2f %-8.2f\n", tick, row["corridor"], row["office"], row["roof"])
	}
	fmt.Printf("\nalerts delivered: %d\n", len(email.Outbox()))
	for _, d := range email.Outbox() {
		fmt.Printf("  t=%2d  %s ← %q\n", d.At, d.Address, d.Text)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
