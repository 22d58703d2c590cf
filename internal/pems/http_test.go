package pems_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"serena/internal/pems"
)

// TestDebugHTTPSurface exercises every route of the PEMS observability mux
// through httptest: status codes, content types, and JSON shapes.
func TestDebugHTTPSurface(t *testing.T) {
	p, _, _, _ := newScenarioPEMS(t)
	defer p.Close()
	if _, err := p.RegisterQuery("probe", "select[area = \"office\"](cameras)", false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	h := p.DebugHandler()

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// /metrics: JSON snapshot with the three metric families.
	rec := get("/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics content type %q", ct)
	}
	var snap struct {
		Counters   map[string]int64           `json:"counters"`
		Gauges     map[string]int64           `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics bad JSON: %v", err)
	}
	if snap.Counters["cq.ticks"] < 1 {
		t.Fatalf("/metrics missing tick counter: %v", snap.Counters)
	}

	// /debug/serena: human-readable status mentioning the query.
	rec = get("/debug/serena")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "probe") {
		t.Fatalf("/debug/serena = %d, body missing query:\n%s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "clock instant: 0") {
		t.Fatalf("/debug/serena missing clock:\n%s", rec.Body.String())
	}

	// /debug/vars: expvar JSON (always valid JSON object).
	rec = get("/debug/vars")
	var vars map[string]json.RawMessage
	if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &vars) != nil {
		t.Fatalf("/debug/vars = %d, not JSON", rec.Code)
	}

	// /debug/pprof/: index page served from the private mux.
	rec = get("/debug/pprof/")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "profile") {
		t.Fatalf("/debug/pprof/ = %d", rec.Code)
	}

	// /debug/trace: valid JSON whether or not any spans are retained.
	rec = get("/debug/trace")
	if rec.Code != 200 {
		t.Fatalf("/debug/trace status %d", rec.Code)
	}
	var dump struct {
		SampleEvery int64             `json:"sample_every"`
		Traces      []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/trace bad JSON: %v", err)
	}
	if dump.Traces == nil {
		t.Fatal("/debug/trace must serve traces:[] even when empty")
	}

	// A traced evaluation shows up on the endpoint.
	if _, err := p.TraceOneShot("select[area = \"office\"](cameras)"); err != nil {
		t.Fatal(err)
	}
	rec = get("/debug/trace")
	if !strings.Contains(rec.Body.String(), "query.eval") {
		t.Fatalf("/debug/trace missing forced trace:\n%s", rec.Body.String())
	}

	// Bad trace_id filter → 400.
	rec = get("/debug/trace?trace_id=nothex")
	if rec.Code != 400 {
		t.Fatalf("bad trace_id should 400, got %d", rec.Code)
	}
}

// TestDebugHTTPEmptyPEMS covers the empty-registry edge: a fresh PEMS with
// no queries, relations, or spans still serves every route.
func TestDebugHTTPEmptyPEMS(t *testing.T) {
	p := pems.New()
	defer p.Close()
	h := p.DebugHandler()
	for _, path := range []string{"/metrics", "/debug/serena", "/debug/vars", "/debug/trace"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s on empty PEMS = %d", path, rec.Code)
		}
	}
}

// TestServeMetricsBindsOnce ensures the HTTP endpoint is exclusive per PEMS
// and serves over a real listener.
func TestServeMetricsBindsOnce(t *testing.T) {
	p := pems.New()
	defer p.Close()
	addr, err := p.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("no bound address")
	}
	if _, err := p.ServeMetrics("127.0.0.1:0"); err == nil {
		t.Fatal("second ServeMetrics should error")
	}
}
