package pems_test

import (
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/wire"
)

// TestCrossProcessTrace is the tentpole end-to-end check: a continuous
// query whose β invocations reach a wire-served node produces ONE coherent
// trace — tick → query → invocation operator → per-tuple β span → wire
// round trip → server-side execution — with an intact parent chain.
//
// The "remote" node lives in this process (its own registry behind a real
// TCP wire.Server), which keeps the test hermetic; trace propagation still
// crosses a genuine client/server round trip. Each side keeps its spans in
// its own engine's tracer, so the tree is the core's spans of the trace
// joined with the node's.
func TestCrossProcessTrace(t *testing.T) {
	// Remote Local-ERM node hosting one sensor.
	remoteReg := service.NewRegistry()
	if err := remoteReg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := remoteReg.Register(device.NewSensor("rsensor01", "office", 21)); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("node-B", remoteReg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Core PEMS attaches the node's services as remote proxies.
	p := pems.New()
	defer p.Close()
	if err := p.ExecuteDDL(`PROTOTYPE getTemperature( ) : (temperature REAL );`); err != nil {
		t.Fatal(err)
	}
	client, err := wire.Dial(addr, 3*time.Second, p.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, infos, err := client.Describe()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if err := p.Registry().Register(wire.NewRemote(client, info)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ExecuteDDL(`
EXTENDED RELATION sensors (
  sensor SERVICE, location STRING, temperature REAL VIRTUAL
) USING BINDING PATTERNS ( getTemperature[sensor] );
INSERT INTO sensors VALUES (rsensor01, "office");`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("hot", "invoke[getTemperature](sensors)", false); err != nil {
		t.Fatal(err)
	}

	p.Registry().Tracer().SetSampleEvery(1)

	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}

	// Locate the tick's trace and index its spans.
	var root *trace.Span
	for _, s := range p.Registry().Tracer().Snapshot() {
		if s.Name == "cq.tick" {
			root = s
		}
	}
	if root == nil {
		t.Fatal("no cq.tick root span recorded")
	}
	spans := append(p.Registry().Tracer().TraceSpans(root.TraceID), remoteReg.Tracer().TraceSpans(root.TraceID)...)
	byName := map[string]*trace.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	for _, want := range []string{"cq.tick", "cq.query", "cq.invoke", trace.SpanInvoke, "wire.roundtrip", "wire.server"} {
		if byName[want] == nil {
			t.Fatalf("trace missing %q span; got %d spans:\n%s", want, len(spans), trace.RenderTree(spans))
		}
	}

	// The parent chain must be intact end to end.
	chain := []struct{ child, parent string }{
		{"cq.query", "cq.tick"},
		{"cq.invoke", "cq.query"},
		{trace.SpanInvoke, "cq.invoke"},
		{"wire.roundtrip", trace.SpanInvoke},
		{"wire.server", "wire.roundtrip"},
	}
	for _, link := range chain {
		c, par := byName[link.child], byName[link.parent]
		if c.ParentID != par.SpanID {
			t.Fatalf("%s should be a child of %s:\n%s", link.child, link.parent, trace.RenderTree(spans))
		}
		if c.TraceID != root.TraceID {
			t.Fatalf("%s escaped the trace", link.child)
		}
	}

	// Span payloads carry the invocation identity and outcome.
	if byName["cq.query"].Attr("query") != "hot" {
		t.Fatalf("cq.query attrs: %v", byName["cq.query"].Attrs)
	}
	inv := byName[trace.SpanInvoke]
	if inv.Attr("ref") != "rsensor01" || inv.Attr("mode") != "passive" || inv.Attr("rows") != "1" {
		t.Fatalf("β span attrs: %v", inv.Attrs)
	}
	ws := byName["wire.server"]
	if ws.Attr("node") != "node-B" || ws.Attr("proto") != "getTemperature" {
		t.Fatalf("server span attrs: %v", ws.Attrs)
	}

	// Lineage resolves the remote invocation back to its query and instant.
	entries := p.Lineage("hot", "rsensor01")
	if len(entries) != 1 || entries[0].Instant != "0" || entries[0].Query != "hot" {
		t.Fatalf("lineage = %+v", entries)
	}
}
