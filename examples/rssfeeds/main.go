// RSS feeds: the paper's second Section 5.2 experiment — RSS wrapper
// services polled into a stream, a keyword filter over a one-hour window,
// and forwarding matching headlines to a contact by e-mail.
//
//	go run ./examples/rssfeeds
package main

import (
	"fmt"
	"log"

	"serena/internal/device"
	"serena/internal/pems"
)

const environment = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE getItems( since INTEGER ) : (itemId INTEGER, title STRING, published INTEGER);

EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);
`

func main() {
	p := pems.New()
	defer p.Close()
	if err := p.ExecuteDDL(environment); err != nil {
		log.Fatal(err)
	}
	email := device.NewMessenger("email")
	if err := p.Registry().Register(email); err != nil {
		log.Fatal(err)
	}
	// The paper polled Le Monde, Le Figaro and CNN Europe; our simulated
	// feeds publish one item every 5 instants, every third one mentioning
	// the watched keyword.
	for _, f := range []struct{ ref, name string }{
		{"lemonde", "Le Monde"}, {"lefigaro", "Le Figaro"}, {"cnn", "CNN Europe"},
	} {
		if err := p.Registry().Register(device.NewFeed(f.ref, f.name, 5, []string{"Obama"})); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := p.AddFeedStream("news"); err != nil {
		log.Fatal(err)
	}

	// The one-hour watchlist (3600 instants ≈ 1h at one instant per second).
	watch, err := p.RegisterQuery("watch",
		`select[title contains "Obama"](window[3600](news))`, false)
	if err != nil {
		log.Fatal(err)
	}
	// Forward each matching headline to Carla, once.
	if _, err := p.RegisterQuery("forward",
		`invoke[sendMessage](assign[text := title](join(
			select[name = "Carla"](contacts),
			project[title](select[title contains "Obama"](window[3600](news))))))`, false); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== polling feeds for 40 instants")
	if err := p.Executor().RunUntil(40); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watchlist currently holds %d matching item(s):\n", watch.LastResult().Len())
	fmt.Print(watch.LastResult().Table())

	fmt.Printf("\nforwarded to Carla (%d message(s)):\n", len(email.Outbox()))
	for _, d := range email.Outbox() {
		fmt.Printf("  t=%2d  %q\n", d.At, d.Text)
	}
}
