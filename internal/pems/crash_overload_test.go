package pems_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"serena/internal/cq"
	"serena/internal/pems"
	"serena/internal/value"
	"serena/internal/wal"
)

// The crash-during-overload harness combines the SIGKILL recovery harness
// with the overload machinery: the child runs the durable crash scenario
// WHILE a producer floods a bounded SHED_NEWEST stream, every tick overruns
// its budget and passive queries coalesce. Killing and recovering under
// that pressure must still yield the control run's exact action set — load
// shedding drops passive telemetry, never actions — and the ON OVERLOAD
// clause itself must survive WAL replay.

const overloadCrashDDL = `
EXTENDED STREAM flood ( v INTEGER ) ON OVERLOAD SHED_NEWEST CAPACITY 16;
`

// buildOverloadCrashEnv is buildCrashEnv plus the overload posture: the
// bounded flood stream, a passive query over it, a tight tick budget and
// coalescing. Identical in the child, every restarted life, and the final
// verification pass.
func buildOverloadCrashEnv(dir, side string) (*pems.PEMS, wal.Info, error) {
	p, info, err := buildCrashEnv(dir, side, pems.Config{Executor: cq.Options{TickBudget: 100 * time.Microsecond, Coalesce: true}})
	if err != nil {
		return nil, wal.Info{}, err
	}
	if info.Fresh {
		if err := p.ExecuteDDL(overloadCrashDDL); err != nil {
			return nil, wal.Info{}, err
		}
		if _, err := p.RegisterQuery("floodwatch", `window[4](flood)`, false); err != nil {
			return nil, wal.Info{}, err
		}
	}
	return p, info, nil
}

// floodProducer floods the bounded stream until stop is closed. Offer
// errors are expected noise during shutdown; the buffer's shed accounting
// is the signal.
func floodProducer(p *pems.PEMS, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		_ = p.Offer("flood", value.Tuple{value.NewInt(int64(i))})
	}
}

// overloadCrashChild runs the durable environment at full tilt — fast
// ticker plus flood — until SIGKILLed.
func overloadCrashChild() {
	dir, side := os.Getenv("SERENA_OCRASH_DIR"), os.Getenv("SERENA_OCRASH_SIDE")
	p, _, err := buildOverloadCrashEnv(dir, side)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overload crash child:", err)
		os.Exit(3)
	}
	go floodProducer(p, make(chan struct{}))
	if err := p.StartTicker(2*time.Millisecond, func(error) {}); err != nil {
		fmt.Fprintln(os.Stderr, "overload crash child:", err)
		os.Exit(3)
	}
	select {} // hold until SIGKILL
}

func TestCrashDuringOverloadSIGKILL(t *testing.T) {
	if os.Getenv("SERENA_OCRASH_CHILD") == "1" {
		overloadCrashChild()
		return
	}
	if testing.Short() {
		t.Skip("crash harness skipped in -short")
	}
	root := os.Getenv("CRASH_DATA_DIR")
	if root == "" {
		root = t.TempDir()
	} else if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "overload-data")
	side := filepath.Join(root, "overload-sends.log")
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const iters = 2
	for i := 0; i < iters; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashDuringOverloadSIGKILL$")
		cmd.Env = append(os.Environ(),
			"SERENA_OCRASH_CHILD=1", "SERENA_OCRASH_DIR="+dir, "SERENA_OCRASH_SIDE="+side)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
		_ = cmd.Process.Kill()
		err := cmd.Wait()
		if err == nil {
			t.Fatalf("iteration %d: child exited cleanly before the kill:\n%s", i, out.String())
		}
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() != -1 {
			t.Fatalf("iteration %d: child died on its own (%v):\n%s", i, err, out.String())
		}
	}

	// Final life: recover under the same overload posture, run two more
	// instants (still flooding) so orphaned β intents resolve.
	p, info, err := buildOverloadCrashEnv(dir, side)
	if err != nil {
		t.Fatalf("final recovery failed: %v", err)
	}
	defer p.Close()
	if info.Fresh {
		t.Fatalf("nothing survived %d crashed lives", iters)
	}
	// The ON OVERLOAD clause survived WAL replay: the recovered relation
	// still has its bounded buffer.
	flood, ok := p.Executor().Relation("flood")
	if !ok {
		t.Fatal("flood stream lost across crashes")
	}
	if pol, capacity, on := flood.OverloadPolicy(); !on || capacity != 16 || pol.String() != "SHED_NEWEST" {
		t.Fatalf("overload policy lost in recovery: %v/%d/%v", pol, capacity, on)
	}
	// Deterministic flood burst: well past the 16-slot capacity, so the
	// recovered buffer itself demonstrably sheds in this life too.
	for i := 0; i < 100; i++ {
		if err := p.Offer("flood", value.Tuple{value.NewInt(int64(i))}); err != nil {
			t.Fatalf("offer after recovery: %v", err)
		}
	}
	target := p.Executor().Now() + 2
	if err := p.Executor().RunUntil(target); err != nil {
		t.Fatal(err)
	}

	// Control: the SAME logical scenario, unloaded — no durability, no
	// crashes, no flood, no budget. Action sets must be exactly equal.
	ctl := controlEnv(t, filepath.Join(t.TempDir(), "control-sends.log"))
	if err := ctl.Executor().RunUntil(target); err != nil {
		t.Fatal(err)
	}
	fwdR, ok := p.Executor().Query("forward")
	if !ok {
		t.Fatal("forward query lost across crashes")
	}
	fwdC, _ := ctl.Executor().Query("forward")
	if !fwdR.Actions().Equal(fwdC.Actions()) {
		t.Errorf("crash-under-overload action set differs from control\n recovered: %s\n control:   %s",
			fwdR.Actions(), fwdC.Actions())
	}

	// At-most-once held through crashes AND overload: no physical delivery
	// fired twice, none outside the control's set.
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatalf("no physical deliveries recorded: %v", err)
	}
	allowed := map[string]bool{}
	for _, a := range fwdC.Actions().Sorted() {
		allowed[a.Input[0].Str()+"|"+a.Input[1].Str()] = true
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		seen[line]++
		if seen[line] > 1 {
			t.Fatalf("active invocation fired twice across crashes: %q", line)
		}
		if !allowed[line] {
			t.Errorf("delivery %q never happens in the control run", line)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no active invocation ever fired; harness produced no load")
	}
	offered, shed := flood.IngestStats()
	t.Logf("crash-under-overload: %d lives, instant %d, %d deliveries, %d offered, %d shed, %d overruns",
		iters, target, len(seen), offered, shed, p.Executor().TickOverruns())
}
