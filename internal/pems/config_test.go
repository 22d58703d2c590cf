package pems_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"serena/internal/cq"
	"serena/internal/pems"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/wal"
)

func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]pems.Config{"zero": {}, "default": pems.DefaultConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config: %v", name, err)
		}
	}
	bad := pems.Config{
		Executor: cq.Options{Parallelism: -1, TickBudget: -time.Second},
		Registry: service.Options{
			InvokeTimeout: -time.Second,
			Retry:         resilience.RetryPolicy{MaxAttempts: -1, BaseDelay: -time.Second},
			Breakers:      &resilience.BreakerPolicy{FailureThreshold: -1, Cooldown: -time.Second},
		},
		WAL: wal.Options{Fsync: wal.SyncOff + 1, CheckpointEvery: -1},
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("out-of-domain config validated")
	}
	for _, want := range []string{"parallelism", "tick budget", "invoke timeout", "retry attempts", "retry base",
		"breaker failures", "breaker cooldown", "fsync", "checkpoint interval"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error does not name %s:\n%v", want, err)
		}
	}
}

// TestConfigBind: Bind declares the shared flags with the receiver's values
// as defaults and parses into the same Config; a bad fsync policy fails the
// parse.
func TestConfigBind(t *testing.T) {
	cfg := pems.DefaultConfig()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg.Bind(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "checkpoint-interval data-dir fsync telemetry" {
		t.Fatalf("bound flags = %s", got)
	}
	if got := fs.Lookup("telemetry").DefValue; got != "true" {
		t.Fatalf("-telemetry default = %s, want DefaultConfig's true", got)
	}
	if err := fs.Parse([]string{"-data-dir", "/d", "-fsync", "always", "-checkpoint-interval", "7", "-telemetry=false"}); err != nil {
		t.Fatal(err)
	}
	if cfg.DataDir != "/d" || cfg.WAL.Fsync != wal.SyncAlways || cfg.WAL.CheckpointEvery != 7 || cfg.Telemetry {
		t.Fatalf("parsed config = %+v", cfg)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg.Bind(fs)
	if err := fs.Parse([]string{"-fsync", "sometimes"}); err == nil {
		t.Fatal("unknown fsync policy parsed")
	}
}

// TestNewAppliesConfig: every knob of the Config reaches its layer at
// construction.
func TestNewAppliesConfig(t *testing.T) {
	var explained bytes.Buffer
	p := pems.New(pems.WithConfig(pems.Config{
		Executor:      cq.Options{Parallelism: 4, TickBudget: time.Second, Coalesce: true},
		Registry:      service.Options{Breakers: &resilience.BreakerPolicy{}},
		Telemetry:     true,
		DataDir:       t.TempDir(),
		WAL:           wal.Options{Fsync: wal.SyncOff},
		ExplainOutput: &explained,
	}))
	defer p.Close()
	if budget, coalescing := p.Executor().OverloadSettings(); budget != time.Second || !coalescing {
		t.Fatalf("overload settings = %v, %v", budget, coalescing)
	}
	if n := p.Executor().NewContext(p.Env(0), 0).Parallelism; n != 4 {
		t.Fatalf("invocation parallelism = %d, want 4", n)
	}
	if p.Registry().Breakers() == nil {
		t.Fatal("breakers not attached")
	}
	if p.Executor().Telemetry() == nil {
		t.Fatal("telemetry not enabled")
	}
	if p.WAL() == nil {
		t.Fatal("durability not enabled")
	}
	if _, err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(table1Prototypes + scenarioTables + `EXPLAIN select[area = "office"](cameras);`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explained.String(), "optimized:") {
		t.Fatalf("EXPLAIN output = %q, want the plan", explained.String())
	}
}

// TestRecoverReportsConfiguredOpenFailure: a data directory New cannot open
// surfaces at Recover, the call every durable embedder makes.
func TestRecoverReportsConfiguredOpenFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p := pems.New(pems.WithConfig(pems.Config{DataDir: file}))
	defer p.Close()
	if p.WAL() != nil {
		t.Fatal("a WAL opened over a plain file")
	}
	if _, err := p.Recover(); err == nil {
		t.Fatal("Recover hid the failed open")
	}
}
