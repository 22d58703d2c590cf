package pems_test

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"serena/internal/algebra"
	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wire"
)

// fedPeer is one pemsd-like cluster member for the in-process chaos
// harness: a wire server over its own registry, heartbeating Alive on the
// shared bus. Both peers replicate the SAME service references (sensors are
// deterministic in (ref, instant), so replicas answer identically), and
// kill() is the SIGKILL analogue — the server dies, heartbeats stop, no Bye
// is ever sent.
type fedPeer struct {
	name      string
	addr      string
	srv       *wire.Server
	sensor    *device.Sensor
	messenger *device.Messenger

	mu     sync.Mutex
	stopHB chan struct{}
	wg     sync.WaitGroup
}

func newFedPeer(t *testing.T, bus *discovery.InProcBus, name string) *fedPeer {
	t.Helper()
	reg := service.NewRegistry()
	for _, proto := range []string{"temp", "send"} {
		var err error
		switch proto {
		case "temp":
			err = reg.RegisterPrototype(device.GetTemperatureProto())
		case "send":
			err = reg.RegisterPrototype(device.SendMessageProto())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fp := &fedPeer{
		name:      name,
		sensor:    device.NewSensor("sensor06", "office", 21),
		messenger: device.NewMessenger("email"),
		stopHB:    make(chan struct{}),
	}
	if err := reg.Register(fp.sensor); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(fp.messenger); err != nil {
		t.Fatal(err)
	}
	fp.srv = wire.NewServer(name, reg)
	addr, err := fp.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp.addr = addr
	fp.wg.Add(1)
	stop := fp.stopHB
	go func() {
		defer fp.wg.Done()
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		bus.Announce(discovery.Announcement{Kind: discovery.Alive, Node: name, Addr: addr})
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				bus.Announce(discovery.Announcement{Kind: discovery.Alive, Node: name, Addr: addr})
			}
		}
	}()
	t.Cleanup(fp.kill)
	return fp
}

// kill simulates SIGKILL: heartbeats stop and the wire server vanishes
// mid-everything. No Bye, no drain. Idempotent.
func (fp *fedPeer) kill() {
	fp.mu.Lock()
	if fp.stopHB != nil {
		close(fp.stopHB)
		fp.stopHB = nil
	}
	fp.mu.Unlock()
	fp.wg.Wait()
	_ = fp.srv.Close()
}

// renderResult flattens a per-tick query result into an order-independent
// comparison key.
func renderResult(r *algebra.XRelation) string {
	if r == nil {
		return ""
	}
	keys := make([]string, 0, r.Len())
	for _, tu := range r.Tuples() {
		keys = append(keys, tu.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// fedRun is everything observable about one cluster run: the coordinator's
// per-tick results, its Definition 8 action count, and the union of the
// physical deliveries on every peer (sorted, with duplicates preserved).
type fedRun struct {
	perTick    []string
	actions    int
	deliveries []string
}

// runFederatedScenario drives the surveillance scenario on a coordinator
// federated with two replicated peers, killing the owner of killRef
// mid-run ("" = control, never crashed). Heat events and the mid-run
// contact insertion are identical in every run, so a masked node loss must
// produce an observably identical run.
func runFederatedScenario(t *testing.T, killRef string) fedRun {
	t.Helper()
	bus := discovery.NewInProcBus()
	p := pems.New(pems.WithDiscovery(bus,
		discovery.WithLease(300*time.Millisecond)))
	defer p.Close()
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	peers := map[string]*fedPeer{}
	for _, name := range []string{"fed-A", "fed-B"} {
		fp := newFedPeer(t, bus, name)
		fp.sensor.Heat(device.HeatEvent{From: 5, To: 8, Delta: 10})   // 21 → 31 °C
		fp.sensor.Heat(device.HeatEvent{From: 12, To: 16, Delta: 10}) // post-kill window
		peers[name] = fp
	}
	waitForPEMS(t, "both peers discovered", func() bool {
		return len(p.Registry().ProviderNodes("sensor06")) == 2 &&
			len(p.Registry().ProviderNodes("email")) == 2
	})
	if err := p.ExecuteDDL(`
		EXTENDED RELATION contacts (
		  name STRING, address STRING, text STRING VIRTUAL,
		  messenger SERVICE, sent BOOLEAN VIRTUAL
		) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
		EXTENDED RELATION surveillance ( name STRING, location STRING );
		INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);
		INSERT INTO surveillance VALUES ("Carla", "office");`); err != nil {
		t.Fatal(err)
	}
	locAttr := []schema.Attribute{{Name: "location", Type: value.String}}
	if _, err := p.AddPollStream("temperatures", "getTemperature", "sensor", locAttr,
		func(string) []value.Value { return []value.Value{value.NewString("office")} }); err != nil {
		t.Fatal(err)
	}
	q, err := p.RegisterQuery("alerts",
		`invoke[sendMessage](assign[text := "Temperature alert!"](join(contacts,
			join(surveillance, select[temperature > 28.0](window[1](temperatures))))))`, false)
	if err != nil {
		t.Fatal(err)
	}

	run := fedRun{}
	for at := 1; at <= 16; at++ {
		if at == 9 && killRef != "" {
			owner := p.Registry().ProviderNodes(killRef)[0]
			peers[owner].kill()
		}
		if at == 10 {
			// A new watcher appears in BOTH runs — its alert in the second
			// heat window is a fresh active invocation fired after the
			// crash, exercising active-β failover (never-sent → safe).
			if err := p.ExecuteDDL(`
				INSERT INTO contacts VALUES ("Zoe", "zoe@x", email);
				INSERT INTO surveillance VALUES ("Zoe", "office");`); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Tick(); err != nil {
			t.Fatalf("tick %d (kill %q): %v", at, killRef, err)
		}
		run.perTick = append(run.perTick, renderResult(q.LastResult()))
	}
	run.actions = q.Actions().Len()
	for _, fp := range peers {
		for _, d := range fp.messenger.Outbox() {
			run.deliveries = append(run.deliveries, d.Address+"|"+d.Text)
		}
	}
	sort.Strings(run.deliveries)
	return run
}

func waitForPEMS(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestFederatedNodeLossMasking is the chaos harness's in-process variant:
// a coordinator spanning two replicated peers loses one peer mid-run —
// once the sensor owner (passive β failover), once the messenger owner
// (active β re-route) — and every observable of the run must equal a
// never-crashed control: per-tick results, the Definition 8 action count,
// and the exact multiset of physical deliveries (no alert lost, none
// duplicated).
func TestFederatedNodeLossMasking(t *testing.T) {
	control := runFederatedScenario(t, "")
	if len(control.deliveries) == 0 {
		t.Fatal("control run produced no deliveries; scenario is vacuous")
	}
	for _, killRef := range []string{"sensor06", "email"} {
		chaos := runFederatedScenario(t, killRef)
		if len(chaos.perTick) != len(control.perTick) {
			t.Fatalf("kill %s: tick counts differ", killRef)
		}
		for i := range control.perTick {
			if chaos.perTick[i] != control.perTick[i] {
				t.Errorf("kill %s: tick %d diverged:\n control %q\n chaos   %q",
					killRef, i+1, control.perTick[i], chaos.perTick[i])
			}
		}
		if chaos.actions != control.actions {
			t.Errorf("kill %s: actions = %d, control %d", killRef, chaos.actions, control.actions)
		}
		if got, want := strings.Join(chaos.deliveries, ","), strings.Join(control.deliveries, ","); got != want {
			t.Errorf("kill %s: deliveries = %s, control %s", killRef, got, want)
		}
	}
}

// TestActiveOutcomeUnknownPinsDelivery kills the messenger owner AFTER it
// received an active invocation but before it answered: the outcome is
// unknown, so the tuple must be pinned — never re-fired on the surviving
// replica — even though the effect may have (and here, does) occur on the
// dying node. At-most-once beats at-least-once for Definition 8 effects.
func TestActiveOutcomeUnknownPinsDelivery(t *testing.T) {
	bus := discovery.NewInProcBus()
	p := pems.New(pems.WithDiscovery(bus,
		discovery.WithLease(2*time.Second)))
	defer p.Close()
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	peers := map[string]*fedPeer{}
	for _, name := range []string{"pin-A", "pin-B"} {
		fp := newFedPeer(t, bus, name)
		fp.messenger.SetLatency(250 * time.Millisecond)
		peers[name] = fp
	}
	waitForPEMS(t, "both messenger replicas discovered", func() bool {
		return len(p.Registry().ProviderNodes("email")) == 2
	})
	if err := p.ExecuteDDL(`
		EXTENDED RELATION contacts (
		  name STRING, address STRING, text STRING VIRTUAL,
		  messenger SERVICE, sent BOOLEAN VIRTUAL
		) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
		INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);`); err != nil {
		t.Fatal(err)
	}
	// FailFast would abort the tick; SKIP lets the unknown-outcome tuple be
	// pinned and the evaluation proceed (the paper's graceful degradation).
	if err := p.ExecuteDDL(`REGISTER QUERY pin ON ERROR SKIP AS
		invoke[sendMessage](assign[text := "pinned"](contacts));`); err != nil {
		t.Fatal(err)
	}

	owner := p.Registry().ProviderNodes("email")[0]
	survivor := "pin-A"
	if owner == "pin-A" {
		survivor = "pin-B"
	}
	// Kill the owner while its messenger is sleeping on our request.
	go func() {
		time.Sleep(80 * time.Millisecond)
		peers[owner].kill()
	}()
	for at := 1; at <= 5; at++ {
		if _, err := p.Tick(); err != nil {
			t.Fatalf("tick %d: %v", at, err)
		}
	}
	if got := peers[survivor].messenger.Outbox(); len(got) != 0 {
		t.Fatalf("outcome-unknown invocation was re-fired on the survivor: %v", got)
	}
	// The dying node's handler ran to completion: the effect occurred once.
	// (It may also have been lost entirely — both are legal under
	// at-most-once; what is illegal is a duplicate.)
	if got := len(peers[owner].messenger.Outbox()); got > 1 {
		t.Fatalf("owner delivered %d times, want at most 1", got)
	}
}

// TestSysPeersRelation drives the sys$peers system relation and the .peers
// /debug/peers surfaces: an alive federated peer appears with its service
// count, and a silently dead peer flips to down/lease_expired — all
// edge-triggered through the telemetry scraper.
func TestSysPeersRelation(t *testing.T) {
	bus := discovery.NewInProcBus()
	p := pems.New(pems.WithDiscovery(bus,
		discovery.WithLease(150*time.Millisecond)))
	defer p.Close()
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		t.Fatal(err)
	}
	fp := newFedPeer(t, bus, "peer-T")
	waitForPEMS(t, "peer discovered", func() bool {
		return len(p.Registry().ProviderNodes("sensor06")) == 1
	})
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	peers, _ := p.Executor().Relation(cq.SysPeers)
	rows := peers.Current()
	if len(rows) != 1 || rows[0][0].Str() != "peer-T" || rows[0][1].Str() != discovery.PeerAlive {
		t.Fatalf("sys$peers alive rows = %v", rows)
	}
	if rows[0][3].Int() != 2 { // sensor06 + email
		t.Fatalf("sys$peers services = %d, want 2", rows[0][3].Int())
	}
	txt := p.PeersReportText()
	if !strings.Contains(txt, "peer-T") || !strings.Contains(txt, discovery.PeerAlive) {
		t.Fatalf(".peers text missing peer: %q", txt)
	}

	// The peer dies silently; the lease sweeper masks it and the next tick
	// flips the row to down/lease_expired.
	fp.kill()
	waitForPEMS(t, "lease expiry", func() bool {
		peers := p.Discovery().Peers()
		return len(peers) == 1 && peers[0].State == discovery.PeerDown
	})
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	rows = peers.Current()
	if len(rows) != 1 || rows[0][1].Str() != discovery.PeerDown {
		t.Fatalf("sys$peers down rows = %v", rows)
	}
	rep := p.PeersReport()
	if !rep.Enabled || len(rep.Peers) != 1 || rep.Peers[0].Reason != "lease_expired" {
		t.Fatalf("PeersReport = %+v", rep)
	}
}
