package main

import (
	"log/slog"
	"os"
	"testing"
)

// Every workload, 30 ops, timed and traced: the run must pass its own
// correctness checks, report every metric of its mode, and — the contract
// of the acceptance criteria — evaluate every continuous query on the
// delta path.
func TestSmokeRunOfEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			name := def.Name + "/timed"
			if traced {
				name = def.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 5, seconds: defaultSeconds, trace: traced, outDir: t.TempDir(), maxOps: 30, noProbes: true}
				r, err := measure(def.New(cfg), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Fatalf("%d failed ops: %v", r.failed, r.failures)
				}
				rep := r.report(def.Name)
				if rep.Attempted < 30 {
					t.Fatalf("%d ops attempted, want at least 30", rep.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
				}
				if !traced {
					for _, d := range defs {
						if rep.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v, want a positive value", d.Name, rep.Metrics[d.Name].Value)
						}
					}
					return
				}
				if def.Name != "oneshot" {
					if share := rep.Metrics["cq.delta_tick_share"].Value; share != 1 {
						t.Errorf("cq.delta_tick_share = %v, want 1", share)
					}
					if v := rep.Metrics["cq.tick_us_per_op"].Value; v <= 0 {
						t.Errorf("cq.tick_us_per_op = %v, want a positive value", v)
					}
				}
			})
		}
	}
}

// The sensitivity switch must reach every query: pinned naive, no
// continuous query evaluates on the delta path, and results stay correct.
func TestPinNaive(t *testing.T) {
	cfg := config{seed: 5, seconds: defaultSeconds, trace: true, pinNaive: true, outDir: t.TempDir(), maxOps: 30, noProbes: true}
	r, err := measure(newWindowChurn(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed ops: %v", r.failed, r.failures)
	}
	if share := r.layer["cq.delta_tick_share"]; share != 0 {
		t.Fatalf("cq.delta_tick_share = %v with every query pinned naive, want 0", share)
	}
}

// Each probe must run on its generated inputs.
func TestProbesRun(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for workload, probes := range probesOf {
		if _, ok := findWorkload(workload); !ok {
			t.Errorf("probes registered for unknown workload %q", workload)
		}
		for _, p := range probes {
			if !known[p.metric] || (p.allocMetric != "" && !known[p.allocMetric]) {
				t.Errorf("probe %s/%s is not a per-layer metric", p.metric, p.allocMetric)
			}
			batch, cleanup, err := p.setup(3, t.TempDir())
			if err != nil {
				t.Errorf("%s: %v", p.metric, err)
				continue
			}
			if d := batch(4); d <= 0 && p.metric != "wal.append_ns_per_event" {
				t.Errorf("%s: four iterations took %v", p.metric, d)
			}
			cleanup()
		}
	}
}

// The engine logs every recovery at Info; keep the test output to failures.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	os.Exit(m.Run())
}
