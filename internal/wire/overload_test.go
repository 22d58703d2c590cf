package wire_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wire"
)

func slowProbeProto() *schema.Prototype {
	return schema.MustPrototype("probe", nil,
		schema.MustRel(schema.Attribute{Name: "v", Type: value.Real}), false)
}

// startSlowNode hosts one "probe" service whose invocations block until
// release is closed — a deterministic way to hold server capacity.
func startSlowNode(t *testing.T, release chan struct{}, opts wire.ServerOptions) (string, *service.Registry, *wire.Server) {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(slowProbeProto()); err != nil {
		t.Fatal(err)
	}
	svc := service.NewFunc("s", map[string]service.InvokeFunc{
		"probe": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			<-release
			return []value.Tuple{{value.NewReal(21)}}, nil
		},
	})
	if err := reg.Register(svc); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("node-slow", reg, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, reg, srv
}

// TestSilentClientDropped: a client that connects and never speaks must not
// pin a server goroutine forever once a read deadline is set.
func TestSilentClientDropped(t *testing.T) {
	addr, _, srv := startNode(t, wire.ServerOptions{ReadTimeout: 100 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The server accepted the connection...
	deadline := time.Now().Add(time.Second)
	for srv.ActiveConns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never registered the connection")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and must drop it after ~readTimeout of silence.
	deadline = time.Now().Add(2 * time.Second)
	for srv.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent client still pinned after 2s: %d conns", srv.ActiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadTimeoutSparesTalkingClients: the deadline is re-armed per request,
// so a client slower than the deadline overall — but never silent longer
// than it between requests — keeps its connection.
func TestReadTimeoutSparesTalkingClients(t *testing.T) {
	addr, _, _ := startNode(t, wire.ServerOptions{ReadTimeout: 150 * time.Millisecond})
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		time.Sleep(60 * time.Millisecond) // idle, but under the deadline
		if _, err := c.Invoke("getTemperature", "sensor01", nil, service.Instant(i)); err != nil {
			t.Fatalf("request %d after idle gap: %v", i, err)
		}
	}
}

// TestServerMaxInFlightRejectsOverloaded: the cap rejects excess requests
// before any registry work, and the client surfaces them as
// errors.Is(err, resilience.ErrOverloaded), a typed failure degradation
// policies absorb like any β failure.
func TestServerMaxInFlightRejectsOverloaded(t *testing.T) {
	release := make(chan struct{})
	addr, _, srv := startSlowNode(t, release, wire.ServerOptions{MaxInFlight: 1})

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Invoke("probe", "s", nil, 0); err != nil {
			t.Errorf("capacity-holding invoke failed: %v", err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never started executing")
		}
		time.Sleep(time.Millisecond)
	}

	begin := time.Now()
	_, err = c.Invoke("probe", "s", nil, 1)
	if !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if time.Since(begin) > 500*time.Millisecond {
		t.Fatalf("rejection not fast: %v", time.Since(begin))
	}

	close(release)
	wg.Wait()
	// Capacity freed: the connection survived the rejection and the next
	// request is admitted.
	if _, err := c.Invoke("probe", "s", nil, 2); err != nil {
		t.Fatalf("post-release invoke: %v", err)
	}
}
