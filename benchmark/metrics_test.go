package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root is what a driver reads; the tables
// in metrics.go are what the program reports. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the documented op counts are for %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, got, d)
		}
		if seen[d.Name] || len(d.Name) > 64 {
			t.Errorf("%s: names are used once and hold at most 64 characters", d.Name)
		}
		seen[d.Name] = true
	}
}

func results(cpu string, metrics map[string]float64) resultsFile {
	rep := runReport{Workload: "oneshot", Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = metricValue{Value: metrics[d.Name], Unit: d.Unit}
	}
	return resultsFile{Fingerprint: fingerprint{Go: "go1", GOMAXPROCS: 2, NumCPU: 2, CPU: cpu}, Runs: []runReport{rep}}
}

func TestCompareAgainstBounds(t *testing.T) {
	base := map[string]float64{}
	for _, d := range endToEnd {
		base[d.Name] = 100
	}
	// worsened returns base with one metric worse by the given share.
	worsened := func(d metricDef, share float64) map[string]float64 {
		m := map[string]float64{}
		for k, x := range base {
			m[k] = x
		}
		if d.Better == "higher" {
			m[d.Name] *= 1 - share
		} else {
			m[d.Name] *= 1 + share
		}
		return m
	}
	check := func(name string, next map[string]float64, cpu string, want bool, print string) {
		t.Helper()
		var out bytes.Buffer
		got := compare(&out, results("x", base), results(cpu, next))
		if got != want || !strings.Contains(out.String(), print) {
			t.Errorf("%s: compare = %v, want %v, output:\n%s", name, got, want, out.String())
		}
	}
	check("identical", base, "x", true, "inside")
	for _, d := range endToEnd {
		check(d.Name+" just inside", worsened(d, d.Bound*0.9), "x", true, "inside")
		check(d.Name+" just outside", worsened(d, d.Bound*1.1), "x", false, "OUTSIDE")
		check(d.Name+" better", worsened(d, -0.5), "x", true, "inside")
		// Across machines timings are refused and only the counts compared.
		check(d.Name+" on another machine", worsened(d, d.Bound*1.1), "y", !d.Portable, "timings refused")
	}
	var out bytes.Buffer
	if compare(&out, results("x", base), resultsFile{}) {
		t.Error("comparing against a file without runs must not pass")
	}
}
