package discovery_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/service"
	"serena/internal/value"
)

// TestManagerChurnUnderRace exercises the Manager's concurrent surfaces —
// announcement handling, the background lease sweeper, subscriber churn on
// the bus and membership snapshots — all at once. It asserts convergence
// (every node discovered once the dust settles); the -race build asserts
// the rest.
func TestManagerChurnUnderRace(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus, discovery.WithLease(50*time.Millisecond))
	m.Start()
	defer m.Stop()

	names := []string{"churn-A", "churn-B", "churn-C"}
	nodes := make([]*discovery.Node, len(names))
	for i, name := range names {
		nodes[i] = newNode(t, bus, name, name+"-sensor")
		if err := nodes[i].Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Stop()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Alive spam: every node renews its lease far faster than expiry.
	for _, n := range nodes {
		wg.Add(1)
		go func(n *discovery.Node) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n.Announce()
					time.Sleep(3 * time.Millisecond)
				}
			}
		}(n)
	}
	// Bye churn: one node keeps flickering in and out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				bus.Announce(discovery.Announcement{Kind: discovery.Bye, Node: names[0], Addr: nodes[0].Addr()})
				time.Sleep(7 * time.Millisecond)
			}
		}
	}()
	// Subscriber churn on the shared bus.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ch, cancel := bus.Subscribe()
				select {
				case <-ch:
				case <-time.After(time.Millisecond):
				}
				cancel()
			}
		}
	}()
	// Membership and registry snapshots race the mutators.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Peers()
				m.Nodes()
				central.Refs()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Settle: every node re-announces and must be (re)discovered.
	for _, n := range nodes {
		n.Announce()
	}
	waitFor(t, "all churned nodes discovered", func() bool {
		return len(m.Nodes()) == len(names)
	})
}

// TestByeDuringInFlightBatch is the wire regression for federation: a Bye
// for a node arrives (and the manager closes its client) while a wire batch
// frame to that node is still in flight. The in-flight batch must not hang,
// must not surface a terminal error, and — with a replica of the reference
// alive on another node — must fail over and deliver every item.
func TestByeDuringInFlightBatch(t *testing.T) {
	bus := discovery.NewInProcBus()
	central := newCentral(t)
	m := discovery.NewManager(central, bus, discovery.WithLease(5*time.Second))
	m.Start()
	defer m.Stop()

	// Two nodes replicate reference "dual"; both answer slowly enough that
	// the Bye races the in-flight frame.
	mkSlow := func() service.Service {
		return service.NewFunc("dual", map[string]service.InvokeFunc{
			"getTemperature": func(_ value.Tuple, at service.Instant) ([]value.Tuple, error) {
				time.Sleep(250 * time.Millisecond)
				return []value.Tuple{{value.NewReal(21)}}, nil
			},
		})
	}
	nodes := map[string]*discovery.Node{}
	for _, name := range []string{"dual-A", "dual-B"} {
		n := discovery.NewNode(name, bus)
		if err := n.Registry().RegisterPrototype(device.GetTemperatureProto()); err != nil {
			t.Fatal(err)
		}
		if err := n.Registry().Register(mkSlow()); err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes[name] = n
	}
	waitFor(t, "both replicas discovered", func() bool {
		return len(central.ProviderNodes("dual")) == 2
	})
	owner := central.ProviderNodes("dual")[0]

	type outcome struct{ results []service.InvokeResult }
	done := make(chan outcome, 1)
	go func() {
		inputs := make([]value.Tuple, 3)
		done <- outcome{central.InvokeAll(context.Background(), "getTemperature", "dual", inputs, 7)}
	}()

	// Let the frame reach the owner, then Bye the owner mid-flight.
	time.Sleep(60 * time.Millisecond)
	bus.Announce(discovery.Announcement{Kind: discovery.Bye, Node: owner, Addr: nodes[owner].Addr()})

	select {
	case out := <-done:
		for i, res := range out.results {
			if res.Err != nil || len(res.Rows) != 1 {
				t.Fatalf("item %d after mid-flight Bye: rows=%v err=%v", i, res.Rows, res.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch hung after mid-flight Bye")
	}
	waitFor(t, "owner masked out", func() bool {
		nodes := central.ProviderNodes("dual")
		return len(nodes) == 1 && nodes[0] != owner
	})
}
