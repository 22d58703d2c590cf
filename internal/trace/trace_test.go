package trace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := New(128, 1)
	root := tr.ForceRoot("tick")
	root.SetAttrInt("instant", 7)
	child := root.Child("query")
	child.SetAttr("query", "hot")
	grand := child.Child("invoke")
	grand.SetAttr("ref", "sensor01")
	grand.Finish()
	child.Finish()
	root.Finish()

	spans := tr.TraceSpans(root.Trace())
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %s has trace %x, want %x", s.Name, s.TraceID, root.TraceID)
		}
	}
	if grand.ParentID != child.SpanID || child.ParentID != root.SpanID {
		t.Fatal("parent chain broken")
	}
	out := RenderTree(spans)
	for _, want := range []string{"tick", "query", "invoke", "instant=7", "ref=sensor01"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
	// The grandchild renders indented under the child.
	if strings.Index(out, "tick") > strings.Index(out, "invoke") {
		t.Fatalf("root should render before descendants:\n%s", out)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.Finish()
	if s.Child("x") != nil {
		t.Fatal("nil span's child should be nil")
	}
	if s.Trace() != 0 || s.ID() != 0 || s.TraceHex() != "" || s.Attr("k") != "" {
		t.Fatal("nil span accessors should return zero values")
	}
	if got := s.LogAttrs(); got != nil {
		t.Fatalf("nil span LogAttrs = %v, want nil", got)
	}
	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span must not be stored in context")
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(64, 4)
	sampled := 0
	for i := 0; i < 40; i++ {
		if tr.StartRoot("r") != nil {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 roots at 1-in-4, want 10", sampled)
	}
	tr.SetSampleEvery(0)
	if tr.Active() {
		t.Fatal("every=0 should deactivate")
	}
	if tr.StartRoot("r") != nil {
		t.Fatal("deactivated tracer sampled a root")
	}
	if tr.ForceRoot("r") == nil {
		t.Fatal("ForceRoot must work even when sampling is off")
	}
}

func TestRingBounds(t *testing.T) {
	tr := New(64, 1)
	for i := 0; i < 200; i++ {
		tr.ForceRoot("r").Finish()
	}
	spans := tr.Snapshot()
	if len(spans) != 64 {
		t.Fatalf("ring retained %d spans, want 64", len(spans))
	}
}

func TestConcurrentFinish(t *testing.T) {
	tr := New(256, 1)
	root := tr.ForceRoot("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("work")
				c.SetAttrInt("i", int64(i))
				c.Finish()
			}
		}()
	}
	wg.Wait()
	root.Finish()
	if got := len(tr.Snapshot()); got != 256 {
		t.Fatalf("retained %d spans, want full ring of 256", got)
	}
}

func TestRemotePropagation(t *testing.T) {
	client := New(64, 1)
	server := New(64, 1)
	root := client.ForceRoot("roundtrip")
	// The wire carries (Trace(), ID()); zero means "not traced".
	remote := server.StartRemote("server", root.Trace(), root.ID())
	if remote == nil || remote.TraceID != root.TraceID || remote.ParentID != root.SpanID {
		t.Fatalf("remote span not linked: %+v", remote)
	}
	remote.Finish()
	root.Finish()
	if server.StartRemote("server", 0, 0) != nil {
		t.Fatal("zero trace ID must yield nil (unsampled or old peer)")
	}
	// Rendering the merged view shows server under client.
	merged := append(client.TraceSpans(root.Trace()), server.TraceSpans(root.Trace())...)
	out := RenderTree(merged)
	if !strings.Contains(out, "server") || !strings.Contains(out, "roundtrip") {
		t.Fatalf("merged render missing spans:\n%s", out)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(64, 1)
	s := tr.ForceRoot("r")
	ctx := ContextWith(context.Background(), s)
	if FromContext(ctx) != s {
		t.Fatal("span lost in context")
	}
	if FromContext(context.Background()) != nil || FromContext(nil) != nil {
		t.Fatal("empty contexts should yield nil")
	}
}

func TestLineage(t *testing.T) {
	tr := New(256, 1)
	for tick := 0; tick < 3; tick++ {
		root := tr.ForceRoot("cq.tick")
		root.SetAttrInt("instant", int64(tick))
		q := root.Child("cq.query")
		q.SetAttr("query", "hot")
		inv := q.Child(SpanInvoke)
		inv.SetAttr("ref", "sensor01")
		inv.SetAttr("in", "(office)")
		inv.Finish()
		q.Finish()
		root.Finish()
	}
	got := tr.Lineage("hot", "sensor01", SpanInvoke)
	if len(got) != 3 {
		t.Fatalf("lineage found %d entries, want 3", len(got))
	}
	if got[0].Query != "hot" || got[0].Instant != "0" || got[2].Instant != "2" {
		t.Fatalf("lineage entries wrong: %+v", got)
	}
	if len(tr.Lineage("other", "sensor01", SpanInvoke)) != 0 {
		t.Fatal("lineage should filter by query name")
	}
	if len(tr.Lineage("", "office", SpanInvoke)) != 3 {
		t.Fatal("lineage should match tuple-key fragments in input attrs")
	}
}

func TestHandler(t *testing.T) {
	tr := New(64, 1)
	root := tr.ForceRoot("tick")
	c := root.Child("invoke")
	c.SetAttr("ref", "s1")
	c.Finish()
	root.Finish()

	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var dump struct {
		SampleEvery int64 `json:"sample_every"`
		Traces      []struct {
			TraceID string `json:"trace_id"`
			Spans   []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(dump.Traces) != 1 || len(dump.Traces[0].Spans) != 2 {
		t.Fatalf("dump shape wrong: %+v", dump)
	}

	// Filter by trace ID.
	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace_id="+root.TraceHex(), nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), root.TraceHex()) {
		t.Fatalf("filtered dump failed: %d %s", rec.Code, rec.Body.String())
	}

	// Bad filter → 400.
	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace_id=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace_id should 400, got %d", rec.Code)
	}

	// Empty tracer → valid JSON with no traces.
	rec = httptest.NewRecorder()
	Handler(New(64, 1)).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"traces": []`) {
		t.Fatalf("empty dump wrong: %d %s", rec.Code, rec.Body.String())
	}
}
