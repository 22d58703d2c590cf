package pems

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"serena/internal/cq"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/wal"
)

// Config is one engine's operating point: every knob of the continuous
// executor, the central registry, self-telemetry and durability, in one
// value. New(WithConfig(cfg)) applies it once, at construction; nothing
// changes it on a running engine, and nothing records it in the data
// directory — an embedder passes its Config again on every start.
//
// The zero Config is the engine New() builds: sequential invocation, no
// tick budget, no invoke timeout, retry or breakers, no telemetry, no
// durability. DefaultConfig holds the defaults the binaries start from.
type Config struct {
	// Executor holds β parallelism, the tick budget and coalescing.
	Executor cq.Options
	// Registry holds the invoke timeout, passive retry and per-service
	// breakers.
	Registry service.Options
	// Telemetry feeds the sys$ system relations and the health state
	// machine.
	Telemetry bool
	// DataDir, when set, makes the environment durable: a write-ahead log
	// and checkpoints in that directory, kept per WAL.
	DataDir string
	WAL     wal.Options
	// ExplainOutput receives the output of EXPLAIN [ANALYZE] DDL statements
	// (nil discards it).
	ExplainOutput io.Writer
}

// DefaultConfig returns the configuration the serena shell and pemsd start
// from before their flags apply: telemetry on, sequential invocation, and
// the default retry backoff with retrying itself off (one attempt).
func DefaultConfig() Config {
	retry := resilience.DefaultRetry()
	retry.MaxAttempts = 1
	return Config{
		Executor:  cq.Options{Parallelism: 1},
		Registry:  service.Options{Retry: retry},
		Telemetry: true,
	}
}

// Bind registers the flags every binary embedding an engine shares —
// -data-dir, -fsync, -checkpoint-interval and -telemetry — on fs, with the
// receiver's current values as defaults. A binary binds its own knobs on
// the same Config next to it.
func (c *Config) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.DataDir, "data-dir", c.DataDir, "make the environment durable: WAL + checkpoints in this directory")
	fs.Func("fsync", fmt.Sprintf("WAL fsync `policy`: always, interval or off, with -data-dir (default %s)", c.WAL.Fsync), func(s string) error {
		p, err := wal.ParseSyncPolicy(s)
		c.WAL.Fsync = p
		return err
	})
	fs.IntVar(&c.WAL.CheckpointEvery, "checkpoint-interval", c.WAL.CheckpointEvery, "ticks between automatic checkpoints (0 = default, with -data-dir)")
	fs.BoolVar(&c.Telemetry, "telemetry", c.Telemetry, "feed the sys$ system relations (sys$metrics, sys$health, sys$streams) and the health state machine")
}

// Validate reports every knob outside its domain.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("pems: "+format, args...))
		}
	}
	e, r := c.Executor, c.Registry
	check(e.Parallelism >= 0, "invocation parallelism %d is negative", e.Parallelism)
	check(e.TickBudget >= 0, "tick budget %s is negative", e.TickBudget)
	check(r.InvokeTimeout >= 0, "invoke timeout %s is negative", r.InvokeTimeout)
	check(r.Retry.MaxAttempts >= 0, "retry attempts %d is negative", r.Retry.MaxAttempts)
	check(r.Retry.BaseDelay >= 0, "retry base %s is negative", r.Retry.BaseDelay)
	if b := r.Breakers; b != nil {
		check(b.FailureThreshold >= 0, "breaker failures %d is negative", b.FailureThreshold)
		check(b.Cooldown >= 0, "breaker cooldown %s is negative", b.Cooldown)
	}
	check(c.WAL.Fsync <= wal.SyncOff, "unknown fsync policy %s", c.WAL.Fsync)
	check(c.WAL.CheckpointEvery >= 0, "checkpoint interval %d is negative", c.WAL.CheckpointEvery)
	return errors.Join(errs...)
}
