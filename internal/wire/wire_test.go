package wire_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
	"serena/internal/wire"
)

// startNode spins up a Local-ERM-style wire server hosting one sensor.
func startNode(t *testing.T) (addr string, reg *service.Registry, srv *wire.Server) {
	t.Helper()
	reg = service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterPrototype(device.SendMessageProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(device.NewSensor("sensor01", "corridor", 20)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(device.NewMessenger("email", "email")); err != nil {
		t.Fatal(err)
	}
	srv = wire.NewServer("node-A", reg)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return bound, reg, srv
}

func TestDescribe(t *testing.T) {
	addr, _, _ := startNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node, infos, err := c.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if node != "node-A" || len(infos) != 2 {
		t.Fatalf("describe = %s %v", node, infos)
	}
	// Sorted by ref: email before sensor01.
	if infos[0].Ref != "email" || infos[1].Ref != "sensor01" {
		t.Fatalf("infos = %v", infos)
	}
	if len(infos[1].Prototypes) != 1 || infos[1].Prototypes[0] != "getTemperature" {
		t.Fatalf("sensor prototypes = %v", infos[1].Prototypes)
	}
}

func TestRemoteInvoke(t *testing.T) {
	addr, _, _ := startNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Invoke("getTemperature", "sensor01", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Kind() != value.Real {
		t.Fatalf("rows = %v", rows)
	}
	// Remote errors are surfaced as errors, not dropped connections.
	_, err = c.Invoke("getTemperature", "ghost", nil, 0)
	if err == nil {
		t.Fatal("unknown remote service accepted")
	}
	if !strings.Contains(err.Error(), "unknown service") {
		t.Fatalf("error text lost over the wire: %v", err)
	}
	// The connection survives an application-level error.
	if _, err := c.Invoke("getTemperature", "sensor01", nil, 6); err != nil {
		t.Fatalf("connection broken after remote error: %v", err)
	}
}

func TestRemoteProxyIsAService(t *testing.T) {
	addr, _, _ := startNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, infos, err := c.Describe()
	if err != nil {
		t.Fatal(err)
	}
	var proxy service.Service
	for _, info := range infos {
		if info.Ref == "sensor01" {
			proxy = wire.NewRemote(c, info)
		}
	}
	if proxy == nil || !proxy.Implements("getTemperature") || proxy.Implements("sendMessage") {
		t.Fatal("proxy interface broken")
	}
	// Register the proxy in a central registry and invoke through it — the
	// core-ERM pattern.
	central := service.NewRegistry()
	_ = central.RegisterPrototype(device.GetTemperatureProto())
	if err := central.Register(proxy); err != nil {
		t.Fatal(err)
	}
	rows, err := central.Invoke("getTemperature", "sensor01", nil, 2)
	if err != nil || len(rows) != 1 {
		t.Fatalf("central invoke = %v %v", rows, err)
	}
}

func TestActiveInvocationOverWire(t *testing.T) {
	addr, reg, _ := startNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Invoke("sendMessage", "email",
		value.Tuple{value.NewString("x@y"), value.NewString("hi")}, 0)
	if err != nil || len(rows) != 1 || !rows[0][0].Bool() {
		t.Fatalf("remote send = %v %v", rows, err)
	}
	// The side effect landed on the REMOTE node's messenger.
	svc, _ := reg.Lookup("email")
	out := svc.(*device.Messenger).Outbox()
	if len(out) != 1 || out[0].Address != "x@y" {
		t.Fatalf("outbox = %v", out)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _, _ := startNode(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 25; j++ {
				if _, err := c.Invoke("getTemperature", "sensor01", nil, service.Instant(j)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerClose(t *testing.T) {
	addr, _, srv := startNode(t)
	c, err := wire.Dial(addr, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := c.Invoke("getTemperature", "sensor01", nil, 0); err == nil {
		t.Fatal("invoke against closed server succeeded")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := wire.Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestClientReconnects(t *testing.T) {
	// Kill the server's conns, then restart a server on the same addr is
	// hard with ephemeral ports; instead verify the second call after a
	// server-side connection drop re-establishes transparently: we close
	// just the accepted conns via Close and re-listen on the same port.
	reg := service.NewRegistry()
	_ = reg.RegisterPrototype(device.GetTemperatureProto())
	_ = reg.Register(device.NewSensor("s", "l", 1))
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("getTemperature", "s", nil, 0); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	srv2 := wire.NewServer("n", reg)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := c.Invoke("getTemperature", "s", nil, 1); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
}

func TestMultiplexedInvocations(t *testing.T) {
	// One client, many concurrent in-flight requests against a slow remote
	// service: with multiplexing, total wall time ≈ one latency, not N.
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	const lat = 40 * time.Millisecond
	if err := reg.Register(service.NewFunc("slow", map[string]service.InvokeFunc{
		"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			time.Sleep(lat)
			return []value.Tuple{{value.NewReal(20)}}, nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const inflight = 8
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Invoke("getTemperature", "slow", nil, service.Instant(i))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Sequential would take ≈ 8×40ms = 320ms; multiplexed ≈ 40ms. Allow 4×.
	if elapsed > 4*lat {
		t.Fatalf("multiplexing ineffective: %v for %d in-flight requests", elapsed, inflight)
	}
}

func TestClientTimeout(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(service.NewFunc("hang", map[string]service.InvokeFunc{
		"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			time.Sleep(2 * time.Second)
			return nil, nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Invoke("getTemperature", "hang", nil, 0)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout too slow")
	}
}

func TestInFlightRequestsFailFastOnConnectionDrop(t *testing.T) {
	// A request stuck behind a dead connection must not hang until the
	// timeout: the read loop's death fails it immediately (and the retry
	// loop then gives up quickly because the listener is gone too).
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	if err := reg.Register(service.NewFunc("slow", map[string]service.InvokeFunc{
		"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			<-block
			return []value.Tuple{{value.NewReal(20)}}, nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(addr, 10*time.Second) // timeout far beyond the test budget
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReconnect(2, time.Millisecond, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke("getTemperature", "slow", nil, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the server
	close(block)
	_ = srv.Close() // drop the connection under the in-flight request
	select {
	case err := <-done:
		if err == nil {
			// The response raced the close and won — also fine.
			return
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request hung after connection drop")
	}
}

func TestInvokeCtxDeadline(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(service.NewFunc("hang", map[string]service.InvokeFunc{
		"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			time.Sleep(2 * time.Second)
			return nil, nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.InvokeCtx(ctx, "getTemperature", "hang", nil, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("context deadline not enforced promptly")
	}
}

func TestRemoteProxyHonorsRegistryTimeout(t *testing.T) {
	// The registry's per-invocation timeout must flow through the Remote
	// proxy into the wire round trip (service.CtxService).
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(service.NewFunc("hang", map[string]service.InvokeFunc{
		"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			time.Sleep(2 * time.Second)
			return nil, nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, infos, err := c.Describe()
	if err != nil {
		t.Fatal(err)
	}
	central := service.NewRegistry()
	if err := central.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if err := central.Register(wire.NewRemote(c, info)); err != nil {
			t.Fatal(err)
		}
	}
	central.SetInvokeTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = central.Invoke("getTemperature", "hang", nil, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("registry timeout not enforced over the wire")
	}
}

func TestClientClosedRejectsCalls(t *testing.T) {
	addr, _, _ := startNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if _, err := c.Invoke("getTemperature", "sensor01", nil, 0); err == nil {
		t.Fatal("closed client accepted a call")
	}
}

// TestTracePropagatesOverWire: a traced client-side invocation and the
// server-side execution share ONE trace ID, with the server span parented
// on the client's round-trip span.
func TestTracePropagatesOverWire(t *testing.T) {
	addr, _, _ := startNode(t)
	prev := trace.Default.SampleEvery()
	trace.Default.SetSampleEvery(1)
	defer func() {
		trace.Default.SetSampleEvery(prev)
		trace.Default.Reset()
	}()
	trace.Default.Reset()

	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root := trace.Default.ForceRoot("test.root")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := c.InvokeCtx(trace.ContextWith(ctx, root), "getTemperature", "sensor01", nil, 5); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	spans := trace.Default.TraceSpans(root.Trace())
	var roundtrip, server *trace.Span
	for _, s := range spans {
		switch s.Name {
		case "wire.roundtrip":
			roundtrip = s
		case "wire.server":
			server = s
		}
	}
	if roundtrip == nil || server == nil {
		t.Fatalf("missing spans in trace: %v", spans)
	}
	if roundtrip.ParentID != root.SpanID {
		t.Fatalf("roundtrip parent = %x, want root %x", roundtrip.ParentID, root.SpanID)
	}
	if server.TraceID != root.TraceID || server.ParentID != roundtrip.SpanID {
		t.Fatalf("server span not linked: trace %x parent %x, want trace %x parent %x",
			server.TraceID, server.ParentID, root.TraceID, roundtrip.SpanID)
	}
	if server.Attr("node") != "node-A" || server.Attr("proto") != "getTemperature" {
		t.Fatalf("server span attrs: %v", server.Attrs)
	}
}

// startCountingNode serves one getTemperature service that counts its
// invocations, so a test can tell whether a request reached the registry.
func startCountingNode(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(service.NewFunc("counted", map[string]service.InvokeFunc{
		"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			calls.Add(1)
			return []value.Tuple{{value.NewReal(20)}}, nil
		},
	})); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("n", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, &calls
}

// expectHangUp reads conn to its end and fails if the server keeps it open.
// A server that closes with our bytes still unread may reset instead of
// closing cleanly; either way the connection is over.
func expectHangUp(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept a mismatched connection open")
	}
}

// TestServerRefusesOtherVersions: a peer that opens with another version's
// preamble, or with a gob request and no preamble at all (how every peer
// before version 5 spoke), is disconnected before any request is read.
// The registry records no invocation; a current client then gets through.
func TestServerRefusesOtherVersions(t *testing.T) {
	addr, calls := startCountingNode(t)

	t.Run("other version preamble", func(t *testing.T) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The server speaks first; answer with its own preamble one version
		// ahead, then a request it must never read.
		pre := make([]byte, 8)
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(conn, pre); err != nil {
			t.Fatal(err)
		}
		pre[len(pre)-1]++
		if _, err := conn.Write(pre); err != nil {
			t.Fatal(err)
		}
		_ = gob.NewEncoder(conn).Encode(wire.Request{ID: 1, Op: "invoke", Proto: "getTemperature", Ref: "counted"})
		expectHangUp(t, conn)
	})

	t.Run("gob request without preamble", func(t *testing.T) {
		// The request shape of protocol version 4: a Ver field and gob
		// values, sent as the very first bytes.
		type v4Value struct {
			Kind uint8
			F    float64
		}
		type v4Request struct {
			ID    uint64
			Ver   int
			Op    string
			Proto string
			Ref   string
			Input []v4Value
			At    int64
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var frame bytes.Buffer
		if err := gob.NewEncoder(&frame).Encode(v4Request{ID: 1, Ver: 4, Op: "invoke", Proto: "getTemperature", Ref: "counted", At: 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame.Bytes()); err != nil {
			t.Fatal(err)
		}
		expectHangUp(t, conn)
	})

	if n := calls.Load(); n != 0 {
		t.Fatalf("refused peers reached the registry: %d invocations", n)
	}
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("getTemperature", "counted", nil, 1); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("current client: %d invocations, want 1", n)
	}
}

// TestDialRefusesOtherVersion: Dial against a server that answers with
// another version's preamble fails as a version mismatch, classified
// unreachable because no request was sent.
func TestDialRefusesOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		pre := make([]byte, 8)
		if _, err := io.ReadFull(conn, pre); err != nil {
			return
		}
		pre[len(pre)-1]++ // echo the client's preamble, one version ahead
		_, _ = conn.Write(pre)
		_, _ = io.Copy(io.Discard, conn)
	}()
	_, err = wire.Dial(ln.Addr().String(), time.Second)
	if !errors.Is(err, wire.ErrVersionMismatch) || !errors.Is(err, resilience.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrVersionMismatch and ErrUnreachable", err)
	}
}

// TestWireAllocationCeilings pins the allocations of one loopback Invoke
// and one 2-item InvokeBatchCtx, counted process-wide so the server half is
// included. The counts are exact on a given toolchain; each ceiling sits
// about 5% above them, so a second codec or a per-call buffer fails here.
// A change that lowers a count lowers its ceiling with it.
func TestWireAllocationCeilings(t *testing.T) {
	addr, _, _ := startNode(t)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batchAddr, _ := startBatchNode(t)
	cb, err := wire.Dial(batchAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inputs := []value.Tuple{msg("a"), msg("b")}

	for _, tc := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		{"invoke", 31, func() { // 30 measured
			if _, err := c.Invoke("getTemperature", "sensor01", nil, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"batch of 2", 77, func() { // 74 measured
			for _, res := range cb.InvokeBatchCtx(ctx, "sendMessage", "picky", inputs, 1) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, tc.call); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
