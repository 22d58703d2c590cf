package pems_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"serena/internal/cq"
	"serena/internal/pems"
)

// TestEnginesReportOnlyTheirOwnWork runs two engines in one process, as
// examples/distributed, the federation tests and serenabench's remote
// workloads do. Each engine's /metrics, sys$metrics and /debug/trace must
// count only its own ticks, invocations and spans.
func TestEnginesReportOnlyTheirOwnWork(t *testing.T) {
	cfg := pems.Config{Telemetry: true}
	a, sensors, _, _ := newScenarioPEMS(t, pems.WithConfig(cfg))
	defer a.Close()
	b, _, _, _ := newScenarioPEMS(t, pems.WithConfig(cfg))
	defer b.Close()
	engines := []struct {
		name  string
		p     *pems.PEMS
		ticks int
	}{{"a", a, 5}, {"b", b, 1}}
	for _, e := range engines {
		e.p.Registry().Tracer().SetSampleEvery(1)
		if _, err := e.p.RegisterQuery("hot", "select[temperature > 28.0](window[1](temperatures))", false); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines {
		for i := 0; i < e.ticks; i++ {
			if _, err := e.p.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, e := range engines {
		h := e.p.DebugHandler()
		get := func(path string, v any) {
			t.Helper()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
				t.Fatalf("engine %s %s: %v", e.name, path, err)
			}
		}
		// The poll stream invokes every sensor once per tick.
		calls := int64(e.ticks * len(sensors))

		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		get("/metrics", &snap)
		if got := snap.Counters["cq.ticks"]; got != int64(e.ticks) {
			t.Errorf("engine %s: /metrics cq.ticks = %d, want %d", e.name, got, e.ticks)
		}
		if got := snap.Counters["service.invoke.calls"]; got != calls {
			t.Errorf("engine %s: /metrics service.invoke.calls = %d, want %d", e.name, got, calls)
		}

		// sys$metrics is scraped at the head of each tick, before the tick
		// counts and polls: its latest rows read the state after the
		// engine's second-to-last tick.
		x, ok := e.p.Executor().Relation(cq.SysMetrics)
		if !ok {
			t.Fatalf("engine %s: no %s", e.name, cq.SysMetrics)
		}
		latest := map[string]float64{}
		for _, tu := range x.InsertedIn(-1, e.p.Executor().Now()) {
			latest[tu[0].Str()] = tu[2].Real()
		}
		if got, want := latest["cq.ticks"], float64(e.ticks-1); got != want {
			t.Errorf("engine %s: sys$metrics cq.ticks = %v, want %v", e.name, got, want)
		}
		if got, want := latest["service.invoke.calls"], float64(calls-int64(len(sensors))); got != want {
			t.Errorf("engine %s: sys$metrics service.invoke.calls = %v, want %v", e.name, got, want)
		}

		var dump struct {
			Traces []struct {
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"traces"`
		}
		get("/debug/trace", &dump)
		roots := 0
		for _, tr := range dump.Traces {
			for _, s := range tr.Spans {
				if s.Name == "cq.tick" {
					roots++
				}
			}
		}
		if roots != e.ticks || len(dump.Traces) != e.ticks {
			t.Errorf("engine %s: /debug/trace holds %d traces with %d cq.tick roots, want %d of its own", e.name, len(dump.Traces), roots, e.ticks)
		}
	}
}
