package discovery_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/service"
	"serena/internal/wire"
)

// busNode is one federated endpoint for WireBus tests: a wire server over a
// registry plus the bus attached to it.
type busNode struct {
	name string
	reg  *service.Registry
	srv  *wire.Server
	bus  *discovery.WireBus
	addr string
}

func newBusNode(t *testing.T, name string, lease time.Duration, refs ...string) *busNode {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		if err := reg.Register(device.NewSensor(ref, "lab", 20)); err != nil {
			t.Fatal(err)
		}
	}
	srv := wire.NewServer(name, reg)
	bus := discovery.NewWireBus(name, discovery.WithBusLease(lease))
	bus.SetCatalogFromRegistry(reg)
	bus.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bus.SetAdvertiseAddr(addr)
	n := &busNode{name: name, reg: reg, srv: srv, bus: bus, addr: addr}
	t.Cleanup(func() { n.bus.Stop(); _ = n.srv.Close() })
	return n
}

// collect subscribes to a bus and accumulates announcements by kind/node.
func collect(t *testing.T, bus *discovery.WireBus) (func(kind discovery.Kind, node string) int, func()) {
	t.Helper()
	ch, cancel := bus.Subscribe()
	var mu sync.Mutex
	counts := map[string]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range ch {
			mu.Lock()
			counts[fmt.Sprintf("%d/%s", a.Kind, a.Node)]++
			mu.Unlock()
		}
	}()
	get := func(kind discovery.Kind, node string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[fmt.Sprintf("%d/%s", kind, node)]
	}
	return get, func() { cancel(); <-done }
}

func TestWireBusRelayConvergesChainToMesh(t *testing.T) {
	// Join graph is a chain A→B→C; announcements must still reach every
	// node (relay), exactly once each (per-origin seq dedup), and C must
	// learn A's address from the relayed Alive (mesh convergence).
	lease := 200 * time.Millisecond
	a := newBusNode(t, "node-A", lease, "a-sensor")
	b := newBusNode(t, "node-B", lease)
	c := newBusNode(t, "node-C", lease)
	a.bus.Join(b.addr)
	b.bus.Join(c.addr)

	gotB, stopB := collect(t, b.bus)
	defer stopB()
	gotC, stopC := collect(t, c.bus)
	defer stopC()

	a.bus.AnnounceSelfNow()
	waitFor(t, "A's Alive relayed to C", func() bool {
		return gotB(discovery.Alive, "node-A") >= 1 && gotC(discovery.Alive, "node-A") >= 1
	})
	if n := gotC(discovery.Alive, "node-A"); n != 1 {
		t.Fatalf("C saw A's Alive %d times, want exactly 1 (dedup)", n)
	}

	// C learned A's address from the relay: a Bye from C now reaches A
	// directly, without B in the path.
	gotA, stopA := collect(t, a.bus)
	defer stopA()
	c.bus.Announce(discovery.Announcement{Kind: discovery.Bye, Node: "node-C", Addr: c.addr})
	waitFor(t, "C's Bye reaches A over the learned link", func() bool {
		return gotA(discovery.Bye, "node-C") >= 1
	})
}

func TestWireBusSynthesizedByeStaysLocal(t *testing.T) {
	// A is linked to B and C. When B dies, A synthesizes a Bye for B — but
	// only A's own subscribers may see it: relaying a link failure could
	// evict a node other peers still reach.
	lease := 100 * time.Millisecond
	a := newBusNode(t, "node-A", lease)
	b := newBusNode(t, "node-B", lease)
	c := newBusNode(t, "node-C", lease)
	a.bus.Join(b.addr, c.addr)

	// One heartbeat teaches A the node names behind both links.
	a.bus.AnnounceSelfNow()
	gotA, stopA := collect(t, a.bus)
	defer stopA()
	gotC, stopC := collect(t, c.bus)
	defer stopC()

	// Kill B's server; A's next heartbeats hit a dead link.
	b.bus.Stop()
	_ = b.srv.Close()
	a.bus.Start()
	waitFor(t, "A synthesizes a local Bye for B", func() bool {
		return gotA(discovery.Bye, "node-B") >= 1
	})
	// C hears A's heartbeats (Alive) but never the synthesized Bye.
	waitFor(t, "C still hears A", func() bool {
		return gotC(discovery.Alive, "node-A") >= 1
	})
	if n := gotC(discovery.Bye, "node-B"); n != 0 {
		t.Fatalf("synthesized Bye was relayed to C (%d times)", n)
	}
}

func TestWireBusFeedsManager(t *testing.T) {
	// End-to-end: a coordinator Manager subscribed to a WireBus discovers a
	// peer announced over the wire and registers its services as providers.
	lease := 200 * time.Millisecond
	peer := newBusNode(t, "node-P", lease, "p-sensor")
	coord := newBusNode(t, "node-K", lease)

	central := newCentral(t)
	m := discovery.NewManager(central, coord.bus, discovery.WithLease(lease))
	m.Start()
	defer m.Stop()

	peer.bus.Join(coord.addr)
	peer.bus.Start()
	peer.bus.AnnounceSelfNow()
	waitFor(t, "peer service discovered via wire bus", func() bool {
		return len(central.ProviderNodes("p-sensor")) == 1
	})
	rows, err := central.Invoke("getTemperature", "p-sensor", nil, 3)
	if err != nil || len(rows) != 1 {
		t.Fatalf("invoke through discovered provider = %v, %v", rows, err)
	}

	// The peer stops announcing; the lease sweeper masks it out without
	// any Bye, within about one lease.
	peer.bus.Stop()
	_ = peer.srv.Close()
	waitFor(t, "silent peer expired", func() bool {
		return len(central.ProviderNodes("p-sensor")) == 0
	})
}

// TestWireBusRedescribesEmptiedCatalog: over the wire bus a node's catalog
// changes reach the manager too, including the last service leaving — an
// empty catalog must still read as a catalog, not as a bare lease renewal.
func TestWireBusRedescribesEmptiedCatalog(t *testing.T) {
	lease := 2 * time.Second
	peer := newBusNode(t, "node-P", lease, "p1")
	coord := newBusNode(t, "node-K", lease)

	central := newCentral(t)
	m := discovery.NewManager(central, coord.bus, discovery.WithLease(lease))
	m.Start()
	defer m.Stop()

	peer.bus.Join(coord.addr)
	peer.bus.AnnounceSelfNow()
	waitFor(t, "the peer's first service", func() bool { return len(central.ProviderNodes("p1")) == 1 })

	if err := peer.reg.Register(device.NewSensor("p2", "lab", 21)); err != nil {
		t.Fatal(err)
	}
	peer.bus.AnnounceSelfNow()
	waitFor(t, "the gained service", func() bool { return len(central.ProviderNodes("p2")) == 1 })

	for _, ref := range []string{"p1", "p2"} {
		if err := peer.reg.Unregister(ref); err != nil {
			t.Fatal(err)
		}
	}
	peer.bus.AnnounceSelfNow()
	waitFor(t, "the emptied catalog", func() bool { return len(central.Refs()) == 0 })
	if got := m.Nodes(); len(got) != 1 || got[0] != "node-P" {
		t.Fatalf("Nodes = %v, want the node kept across re-describes", got)
	}
}
