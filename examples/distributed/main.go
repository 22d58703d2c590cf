// Distributed: the paper's Figure 1 in one program — a core PEMS plus two
// Local Environment Resource Manager nodes speaking the wire protocol over
// real TCP, discovered through announce messages, with a continuous alert
// query whose invocations cross the network in both directions (sensor
// reads in, message sends out).
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/value"
)

func main() {
	bus := discovery.NewInProcBus()
	// Remote invocations fan out concurrently over the multiplexed TCP
	// connection (Section 5.1: asynchronous invocation handling).
	p := pems.New(pems.WithDiscovery(bus), pems.WithConfig(pems.Config{Executor: cq.Options{Parallelism: 8}}))
	defer p.Close()
	must(p.ExecuteDDL(`
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE getTemperature( ) : (temperature REAL );
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);`))

	// Local ERM "building-A": two office sensors, served over TCP.
	nodeA := discovery.NewNode("building-A", bus)
	must(nodeA.Registry().RegisterPrototype(device.GetTemperatureProto()))
	office := device.NewSensor("sensor06", "office", 21)
	must(nodeA.Registry().Register(office))
	must(nodeA.Registry().Register(device.NewSensor("sensor07", "office", 22)))
	must(nodeA.Start("127.0.0.1:0"))
	defer nodeA.Stop()
	fmt.Printf("node building-A serving on %s\n", nodeA.Addr())

	// Local ERM "gateway": the e-mail service.
	nodeB := discovery.NewNode("gateway", bus)
	must(nodeB.Registry().RegisterPrototype(device.SendMessageProto()))
	email := device.NewMessenger("email")
	must(nodeB.Registry().Register(email))
	must(nodeB.Start("127.0.0.1:0"))
	defer nodeB.Stop()
	fmt.Printf("node gateway serving on %s\n", nodeB.Addr())

	// Wait for discovery.
	for i := 0; i < 600 && len(p.Registry().Refs()) < 3; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("core discovered services: %v (nodes %v)\n", p.Registry().Refs(), p.Discovery().Nodes())

	// The temperatures stream now polls the REMOTE sensors every tick.
	_, err := p.AddPollStream("temperatures", "getTemperature", "sensor",
		[]schema.Attribute{{Name: "location", Type: value.String}},
		func(string) []value.Value { return []value.Value{value.NewString("office")} })
	must(err)
	q, err := p.RegisterQuery("alerts",
		`invoke[sendMessage](assign[text := "Hot!"](join(contacts,
			select[temperature > 28.0](window[1](temperatures)))))`, true)
	must(err)

	fmt.Println("== running 10 instants with a heat event at t=4..7")
	office.Heat(device.HeatEvent{From: 4, To: 7, Delta: 12})
	must(p.Executor().RunUntil(10))

	fmt.Printf("alerts delivered on the gateway node: %d\n", len(email.Outbox()))
	for _, d := range email.Outbox() {
		fmt.Printf("  t=%2d  %s ← %q\n", d.At, d.Address, d.Text)
	}
	fmt.Println("cumulative action set:", q.Actions())

	// The sensor node leaves: the stream dries up, the system keeps running.
	fmt.Println("== building-A withdraws (bye)")
	must(nodeA.Stop())
	for i := 0; i < 600 && len(p.Registry().Implementing("getTemperature")) > 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	must(p.Executor().RunUntil(14))
	fmt.Printf("after withdrawal: %d alert(s) total, services %v\n",
		len(email.Outbox()), p.Registry().Refs())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
