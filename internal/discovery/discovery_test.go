package discovery_test

import (
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/service"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// newNode builds a Local ERM hosting the given sensors.
func newNode(t *testing.T, bus discovery.Bus, name string, sensorRefs ...string) *discovery.Node {
	t.Helper()
	n := discovery.NewNode(name, bus)
	if err := n.Registry().RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	for _, ref := range sensorRefs {
		if err := n.Registry().Register(device.NewSensor(ref, "lab", 20)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func newCentral(t *testing.T) *service.Registry {
	t.Helper()
	central := service.NewRegistry()
	if err := central.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	return central
}

func TestDiscoveryRegistersRemoteServices(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()

	node := newNode(t, bus, "node-A", "sensorA1", "sensorA2")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	waitFor(t, "services discovered", func() bool {
		return len(central.Implementing("getTemperature")) == 2
	})
	// Invoke through the central registry: transparent remote invocation.
	rows, err := central.Invoke("getTemperature", "sensorA1", nil, 3)
	if err != nil || len(rows) != 1 {
		t.Fatalf("remote invoke via central = %v %v", rows, err)
	}
	if got := m.Nodes(); len(got) != 1 || got[0] != "node-A" {
		t.Fatalf("Nodes = %v", got)
	}
}

func TestByeUnregisters(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()

	node := newNode(t, bus, "node-A", "sensorA1")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "discovery", func() bool { return len(central.Refs()) == 1 })
	if err := node.Stop(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bye processed", func() bool { return len(central.Refs()) == 0 })
}

func TestTwoNodes(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()

	a := newNode(t, bus, "node-A", "sensorA1")
	b := newNode(t, bus, "node-B", "sensorB1", "sensorB2")
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	if err := b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	waitFor(t, "both nodes", func() bool { return len(central.Refs()) == 3 })
	_ = a.Stop()
	waitFor(t, "A gone, B stays", func() bool { return len(central.Refs()) == 2 })
}

func TestLateManagerMissesNothingAfterReannounce(t *testing.T) {
	bus := discovery.NewInProcBus()
	node := newNode(t, bus, "node-A", "sensorA1")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	// Manager starts AFTER the node announced (missed the initial alive).
	central := newCentral(t)
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()
	if len(central.Refs()) != 0 {
		t.Fatal("nothing should be known yet")
	}
	node.Announce() // periodic lease renewal reaches the late manager
	waitFor(t, "reannounce discovery", func() bool { return len(central.Refs()) == 1 })
}

// TestReannounceRedescribesChangedCatalog: a known node that gains or
// loses a service after discovery re-announces its catalog from the same
// address, and the manager describes it again — the gained service reaches
// the central registry and the lost one leaves it, without the node moving
// or dropping.
func TestReannounceRedescribesChangedCatalog(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()

	node := newNode(t, bus, "node-A", "sensorA1")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	waitFor(t, "discovery", func() bool { return len(central.Refs()) == 1 })

	if err := node.Registry().Register(device.NewSensor("sensorA2", "lab", 21)); err != nil {
		t.Fatal(err)
	}
	node.Announce()
	waitFor(t, "the gained service", func() bool {
		_, err := central.Lookup("sensorA2")
		return err == nil
	})
	if rows, err := central.Invoke("getTemperature", "sensorA2", nil, 1); err != nil || len(rows) != 1 {
		t.Fatalf("invoke of the gained service via central = %v %v", rows, err)
	}

	if err := node.Registry().Unregister("sensorA1"); err != nil {
		t.Fatal(err)
	}
	node.Announce()
	waitFor(t, "the lost service to leave", func() bool {
		refs := central.Refs()
		return len(refs) == 1 && refs[0] == "sensorA2"
	})
	if got := m.Nodes(); len(got) != 1 || got[0] != "node-A" {
		t.Fatalf("Nodes = %v, want the node kept across re-describes", got)
	}
}

func TestLeaseExpiry(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus, discovery.WithLease(50*time.Millisecond))
	m.Start()
	defer m.Stop()

	node := newNode(t, bus, "node-A", "sensorA1")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	waitFor(t, "discovery", func() bool { return len(central.Refs()) == 1 })

	// Renewal within the lease keeps the node alive.
	node.Announce()
	if expired := m.SweepExpired(time.Now()); len(expired) != 0 {
		t.Fatalf("renewed node expired: %v", expired)
	}
	// Past the lease without renewal → swept, either by this manual call or
	// by the background sweeper that Start launched, whichever fires first.
	expired := m.SweepExpired(time.Now().Add(time.Second))
	if len(expired) == 1 && expired[0] != "node-A" {
		t.Fatalf("expired = %v", expired)
	}
	waitFor(t, "expired node's services unregistered", func() bool {
		return len(central.Refs()) == 0 && len(m.Nodes()) == 0
	})
}

// TestBackgroundSweepMasksDeadNode: a node that dies WITHOUT a bye message
// (crash, partition) is masked out of the central registry by the sweeper
// Start launches — nobody calls SweepExpired by hand here.
func TestBackgroundSweepMasksDeadNode(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus, discovery.WithLease(60*time.Millisecond))
	m.Start()
	defer m.Stop()

	node := newNode(t, bus, "node-A", "sensorA1")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	waitFor(t, "discovery", func() bool { return len(central.Refs()) == 1 })

	// The node now goes silent: no renewals, no bye. Within about one lease
	// the sweeper must unregister its services and forget the node.
	waitFor(t, "dead node masked", func() bool {
		return len(central.Refs()) == 0 && len(m.Nodes()) == 0
	})
	// The masked service is gone from resolution, so running queries see a
	// clean unknown-service failure, not a hang against a dead peer.
	if _, err := central.Invoke("getTemperature", "sensorA1", nil, 0); err == nil {
		t.Fatal("invocation against a dead node's service succeeded")
	}
	if got := central.Implementing("getTemperature"); len(got) != 0 {
		t.Fatalf("dead node still implementing: %v", got)
	}
}

func TestUnreachableAnnouncementIgnored(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()
	bus.Announce(discovery.Announcement{Kind: discovery.Alive, Node: "phantom", Addr: "127.0.0.1:1"})
	time.Sleep(200 * time.Millisecond)
	if len(m.Nodes()) != 0 || len(central.Refs()) != 0 {
		t.Fatal("phantom node registered")
	}
}

func TestRefCollisionSkipped(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	// Central already has a LOCAL sensor01.
	if err := central.Register(device.NewSensor("sensor01", "local", 5)); err != nil {
		t.Fatal(err)
	}
	m := discovery.NewManager(central, bus)
	m.Start()
	defer m.Stop()
	node := newNode(t, bus, "node-A", "sensor01", "sensor02")
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	waitFor(t, "partial discovery", func() bool { return len(central.Refs()) == 2 })
	// The local sensor01 must have won; remote sensor02 registered.
	svc, _ := central.Lookup("sensor01")
	if _, isLocal := svc.(*device.Sensor); !isLocal {
		t.Fatal("local service displaced by remote one")
	}
}

func TestInProcBusSubscribeCancel(t *testing.T) {
	bus := discovery.NewInProcBus()
	ch, cancel := bus.Subscribe()
	bus.Announce(discovery.Announcement{Kind: discovery.Alive, Node: "x", Addr: "a"})
	if a := <-ch; a.Node != "x" {
		t.Fatalf("announcement = %+v", a)
	}
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel open after cancel")
	}
	cancel() // idempotent
	bus.Announce(discovery.Announcement{Kind: discovery.Bye, Node: "x", Addr: "a"})
}
