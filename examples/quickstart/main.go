// Quickstart: declare a relational pervasive environment in Serena DDL,
// run the paper's Table 4 one-shot queries (Q1 and Q2), and watch the
// optimizer rewrite a naive plan.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"serena/internal/device"
	"serena/internal/pems"
)

const environment = `
-- Table 1: prototypes of the temperature-surveillance scenario.
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : (quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : (photo BLOB );
PROTOTYPE getTemperature( ) : (temperature REAL );

-- Table 2: the contacts and cameras X-Relations.
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

INSERT INTO contacts VALUES
  ("Nicolas", "nicolas@elysee.fr", email),
  ("Carla", "carla@elysee.fr", email),
  ("Francois", "francois@im.gouv.fr", jabber);
INSERT INTO cameras VALUES
  (camera01, "corridor"), (camera02, "office"), (webcam07, "roof");
`

func main() {
	p := pems.New()
	defer p.Close()

	// Register the simulated devices (email/jabber gateways, cameras) with
	// the core Environment Resource Manager.
	email := device.NewMessenger("email")
	jabber := device.NewMessenger("jabber")
	if err := p.ExecuteDDL(environment[:findFirstRelation(environment)]); err != nil {
		log.Fatal(err)
	}
	if err := p.Registry().Register(email); err != nil {
		log.Fatal(err)
	}
	if err := p.Registry().Register(jabber); err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		ref, area string
		q         int64
	}{{"camera01", "corridor", 8}, {"camera02", "office", 7}, {"webcam07", "roof", 5}} {
		if err := p.Registry().Register(device.NewCamera(c.ref, c.area, c.q, 0.2)); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.ExecuteDDL(environment[findFirstRelation(environment):]); err != nil {
		log.Fatal(err)
	}

	// Q1 (Table 4): send "Bonjour!" to every contact except Carla.
	fmt.Println("== Q1: invoke[sendMessage](assign[text := \"Bonjour!\"](select[name != \"Carla\"](contacts)))")
	res, err := p.OneShot(`invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Relation.Table())
	fmt.Println("action set:", res.Actions)
	fmt.Println("email outbox:", deliveries(email))
	fmt.Println("jabber outbox:", deliveries(jabber))

	// Q2 (Table 4): photos of the office with quality ≥ 5.
	fmt.Println("\n== Q2: project[photo](invoke[takePhoto](select[quality >= 5](invoke[checkPhoto](select[area = \"office\"](cameras)))))")
	res, err = p.OneShot(`project[photo](invoke[takePhoto](select[quality >= 5](invoke[checkPhoto](select[area = "office"](cameras)))))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Relation.Table())
	fmt.Printf("passive invocations: %d (action set empty: %v)\n", res.Stats.Passive, res.Actions.Len() == 0)

	// The same queries in Serena SQL: the declarative WHERE compiles to the
	// earliest legal position (Q1 semantics — Carla is never messaged).
	fmt.Println("\n== Serena SQL: SELECT photo FROM cameras USING checkPhoto, takePhoto WHERE area = \"office\" AND quality >= 5")
	res, err = p.OneShotSQL(`SELECT photo FROM cameras USING checkPhoto, takePhoto
		WHERE area = "office" AND quality >= 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d photo(s), %d passive invocation(s)\n", res.Relation.Len(), res.Stats.Passive)

	// Aggregation (the paper's mean-temperature motivation, via SQL).
	fmt.Println("\n== Serena SQL aggregation over the messengers' relation")
	res, err = p.OneShotSQL(`SELECT messenger, count(*) AS n FROM contacts GROUP BY messenger`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Relation.Table())

	// The optimizer turns the naive Q2' into Q2 (Table 5 pushdown).
	fmt.Println("\n== optimizer: registering the naive Q2' as a continuous query with optimization")
	q, err := p.RegisterQuery("photos", `select[area = "office"](invoke[checkPhoto](cameras))`, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered plan:", q.Plan())
	if _, err := p.Tick(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first tick result: %d tuple(s), %d passive invocation(s)\n",
		q.LastResult().Len(), q.Stats().Passive)
}

func deliveries(m *device.Messenger) []string {
	var out []string
	for _, d := range m.Outbox() {
		out = append(out, fmt.Sprintf("%s ← %q", d.Address, d.Text))
	}
	return out
}

// findFirstRelation splits the DDL so prototypes are declared before the
// devices register (services must reference known prototypes).
func findFirstRelation(src string) int {
	const marker = "EXTENDED RELATION"
	for i := 0; i+len(marker) <= len(src); i++ {
		if src[i:i+len(marker)] == marker {
			return i
		}
	}
	return len(src)
}
