package pems_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wal"
)

// The crash harness re-executes this test binary as a child running a
// durable PEMS under a fast real-time ticker, SIGKILLs it at a randomized
// point mid-flight, restarts it, and finally verifies the recovered
// environment against a never-crashed control run: identical window
// contents, identical action sets, and — the effectful-once guarantee —
// no active invocation physically fired twice, proven by a side-effect
// file the active service appends to on every real call.

// crashTablesDDL declares the crash scenario: one contact reached over an
// ACTIVE binding pattern.
const crashTablesDDL = `
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);
`

// Every third feed item mentions Obama, so each matching item is a NEW
// (address, title) input for the active β — the action set grows over
// time, giving the kill points plenty of intents to land between.
const (
	crashWatchQ   = `select[title contains "Obama"](window[3600](news))`
	crashForwardQ = `invoke[sendMessage](assign[text := title](join(
		select[name = "Carla"](contacts),
		project[title](select[title contains "Obama"](window[3600](news))))))`
	// digest keeps the incremental evaluator's stateful operators loaded at
	// every kill point: a ⋈ whose probe indexes grow each instant (recently
	// active feeds against the long item window) feeding per-group
	// count/min/max accumulators. None of that operator state is
	// checkpointed — recovery must rebuild it from the WAL-replayed event
	// logs and still match the never-crashed control bit-for-bit.
	crashDigestQ = `aggregate[count(*) as total, min(published) as first, max(published) as latest by feed](
		join(project[feed](window[2](news)), window[3600](news)))`
	// rollup materializes its matches INTO a named derived relation that a
	// second query then reads as a base — the cascade must recover to
	// control-equal contents even when kills land between the producer's
	// tick and the consumer's.
	crashRollupDDL = `REGISTER QUERY rollup INTO obamamat RETAIN 64 INSTANTS
		AS select[title contains "Obama"](window[3600](news));`
	crashReaderQ = `project[title](obamamat)`
)

// fileMessenger implements sendMessage by appending one line per physical
// delivery to a side file — effects that survive SIGKILL, unlike an
// in-memory outbox, so the parent can count real fires across lives.
type fileMessenger struct {
	ref  string
	path string
}

func (m *fileMessenger) Ref() string              { return m.ref }
func (m *fileMessenger) PrototypeNames() []string { return []string{"sendMessage"} }
func (m *fileMessenger) Implements(p string) bool { return p == "sendMessage" }

func (m *fileMessenger) Invoke(_ context.Context, proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if proto != "sendMessage" {
		return nil, fmt.Errorf("%w: %s on %s", service.ErrNotImplemented, proto, m.ref)
	}
	f, err := os.OpenFile(m.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "%s|%s\n", input[0].Str(), input[1].Str()); err != nil {
		return nil, err
	}
	return []value.Tuple{{value.NewBool(true)}}, nil
}

// buildCrashEnv assembles the durable crash environment over cfg — the
// exact same steps in the child, in every restarted life, and in the final
// verification pass. The configuration makes it durable in dir and turns
// self-telemetry on: system relations active during the crash runs must
// never leak into the WAL or checkpoints, and recovery must replay
// identically with the scraper installed.
func buildCrashEnv(dir, side string, cfg pems.Config) (*pems.PEMS, wal.Info, error) {
	cfg.DataDir, cfg.WAL, cfg.Telemetry = dir, wal.Options{Fsync: wal.SyncInterval, CheckpointEvery: 10}, true
	p := pems.New(pems.WithConfig(cfg))
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		return nil, wal.Info{}, err
	}
	if err := p.Registry().RegisterPrototype(device.GetItemsProto()); err != nil {
		return nil, wal.Info{}, err
	}
	if err := p.Registry().Register(&fileMessenger{ref: "email", path: side}); err != nil {
		return nil, wal.Info{}, err
	}
	if err := p.Registry().Register(device.NewFeed("lemonde", "Le Monde", 2, []string{"Obama"})); err != nil {
		return nil, wal.Info{}, err
	}
	if _, err := p.AddFeedStream("news"); err != nil {
		return nil, wal.Info{}, err
	}
	info, err := p.Recover()
	if err != nil {
		return nil, wal.Info{}, err
	}
	if info.Fresh {
		if err := p.ExecuteDDL(crashTablesDDL); err != nil {
			return nil, wal.Info{}, err
		}
		if _, err := p.RegisterQuery("watch", crashWatchQ, false); err != nil {
			return nil, wal.Info{}, err
		}
		if _, err := p.RegisterQuery("forward", crashForwardQ, false); err != nil {
			return nil, wal.Info{}, err
		}
		if _, err := p.RegisterQuery("digest", crashDigestQ, false); err != nil {
			return nil, wal.Info{}, err
		}
		if err := p.ExecuteDDL(crashRollupDDL); err != nil {
			return nil, wal.Info{}, err
		}
		if _, err := p.RegisterQuery("mreader", crashReaderQ, false); err != nil {
			return nil, wal.Info{}, err
		}
	}
	return p, info, nil
}

// controlEnv runs the identical scenario with no durability and no
// crashes: the ground truth for instant-for-instant comparison.
func controlEnv(t *testing.T, side string) *pems.PEMS {
	t.Helper()
	p := pems.New()
	t.Cleanup(p.Close)
	if err := p.ExecuteDDL(table1Prototypes); err != nil {
		t.Fatal(err)
	}
	if err := p.Registry().RegisterPrototype(device.GetItemsProto()); err != nil {
		t.Fatal(err)
	}
	if err := p.Registry().Register(&fileMessenger{ref: "email", path: side}); err != nil {
		t.Fatal(err)
	}
	if err := p.Registry().Register(device.NewFeed("lemonde", "Le Monde", 2, []string{"Obama"})); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddFeedStream("news"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(crashTablesDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("watch", crashWatchQ, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("forward", crashForwardQ, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("digest", crashDigestQ, false); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(crashRollupDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("mreader", crashReaderQ, false); err != nil {
		t.Fatal(err)
	}
	return p
}

// crashChild is the re-executed child process: build the durable
// environment, tick as fast as possible, run until killed.
func crashChild() {
	dir, side := os.Getenv("SERENA_CRASH_DIR"), os.Getenv("SERENA_CRASH_SIDE")
	p, _, err := buildCrashEnv(dir, side, pems.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	if err := p.StartTicker(2*time.Millisecond, func(error) {}); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	select {} // hold until SIGKILL
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv("SERENA_CRASH_CHILD") == "1" {
		crashChild()
		return
	}
	if testing.Short() {
		t.Skip("crash harness skipped in -short")
	}
	// CRASH_DATA_DIR keeps the data dir and side file outside the test's
	// temp tree so CI can upload them as an artifact when the run fails.
	root := os.Getenv("CRASH_DATA_DIR")
	if root == "" {
		root = t.TempDir()
	} else if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "data")
	side := filepath.Join(root, "sends.log")
	iters := 3
	if s := os.Getenv("CRASH_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			iters = n
		}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < iters; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoverySIGKILL$")
		cmd.Env = append(os.Environ(),
			"SERENA_CRASH_CHILD=1", "SERENA_CRASH_DIR="+dir, "SERENA_CRASH_SIDE="+side)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Randomized kill point: mid-tick, mid-recovery, mid-checkpoint —
		// wherever the clock lands.
		time.Sleep(time.Duration(40+rng.Intn(100)) * time.Millisecond)
		_ = cmd.Process.Kill()
		err := cmd.Wait()
		if err == nil {
			t.Fatalf("iteration %d: child exited cleanly before the kill:\n%s", i, out.String())
		}
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() != -1 {
			t.Fatalf("iteration %d: child died on its own (%v):\n%s", i, err, out.String())
		}
	}

	// Final life: recover, then run two more instants so any β whose intent
	// never became durable is re-evaluated and fired live.
	p, info, err := buildCrashEnv(dir, side, pems.Config{})
	if err != nil {
		t.Fatalf("final recovery failed: %v", err)
	}
	defer p.Close()
	if info.Fresh {
		t.Fatalf("nothing survived %d crashed lives (kills landed before the first flush?)", iters)
	}
	target := p.Executor().Now() + 2
	if err := p.Executor().RunUntil(target); err != nil {
		t.Fatal(err)
	}

	ctl := controlEnv(t, filepath.Join(t.TempDir(), "control-sends.log"))
	if err := ctl.Executor().RunUntil(target); err != nil {
		t.Fatal(err)
	}

	// The passive query must match the control instant-for-instant: windows
	// and stream history recompute deterministically.
	watchR, ok := p.Executor().Query("watch")
	if !ok {
		t.Fatal("watch query lost across crashes")
	}
	watchC, _ := ctl.Executor().Query("watch")
	if !watchR.LastResult().EqualContents(watchC.LastResult()) {
		t.Errorf("watch at instant %d: recovered result differs from control\n recovered: %s\n control:   %s",
			target, watchR.LastResult(), watchC.LastResult())
	}

	// The active query is at-most-once: a β orphaned between its durable
	// intent and its result is pinned as attempted with unknown outcome, so
	// its output row may be absent — but never invented, and its action is
	// still in the set. Hence: recovered rows ⊆ control rows, action sets
	// exactly equal.
	fwdR, ok := p.Executor().Query("forward")
	if !ok {
		t.Fatal("forward query lost across crashes")
	}
	fwdC, _ := ctl.Executor().Query("forward")
	for _, row := range fwdR.LastResult().Tuples() {
		if !fwdC.LastResult().Contains(row) {
			t.Errorf("forward: recovered row never exists in the control run: %s", row)
		}
	}
	if !fwdR.Actions().Equal(fwdC.Actions()) {
		t.Errorf("forward: recovered action set differs from control\n recovered: %s\n control:   %s",
			fwdR.Actions(), fwdC.Actions())
	}
	if missing := fwdC.LastResult().Len() - fwdR.LastResult().Len(); missing > 0 {
		t.Logf("forward: %d row(s) absent vs control (orphaned β, at-most-once)", missing)
	}

	// The join + aggregate query recovered mid-flight: its probe indexes
	// and per-group accumulators existed only in memory when the kills
	// landed, so matching the control proves the incremental evaluator
	// rebuilt them from the WAL-replayed relations — and kept using the
	// delta path afterwards, not a silent naive fallback.
	digR, ok := p.Executor().Query("digest")
	if !ok {
		t.Fatal("digest query lost across crashes")
	}
	digC, _ := ctl.Executor().Query("digest")
	if !digR.LastResult().EqualContents(digC.LastResult()) {
		t.Errorf("digest at instant %d: recovered aggregate differs from control\n recovered: %s\n control:   %s",
			target, digR.LastResult(), digC.LastResult())
	}
	if got := digR.EvaluationMode(); got != "delta" {
		t.Errorf("recovered digest runs %q, want delta", got)
	}
	if d, _ := digR.EvalCounts(); d == 0 {
		t.Error("recovered digest never took a delta tick")
	}

	// The materialized cascade: the INTO relation itself must recover to the
	// control's exact contents (replay re-derives it from the producer; the
	// logged events for it are skipped, so nothing double-applies), and the
	// consumer reading it as a base must agree too.
	rollR, ok := p.Executor().Query("rollup")
	if !ok {
		t.Fatal("rollup query lost across crashes")
	}
	if rollR.Into() != "obamamat" || rollR.Retain() != 64 {
		t.Errorf("rollup INTO/RETAIN lost: into=%q retain=%d", rollR.Into(), rollR.Retain())
	}
	rollC, _ := ctl.Executor().Query("rollup")
	if !rollR.LastResult().EqualContents(rollC.LastResult()) {
		t.Errorf("rollup at instant %d: recovered result differs from control\n recovered: %s\n control:   %s",
			target, rollR.LastResult(), rollC.LastResult())
	}
	matR, ok := p.Executor().Relation("obamamat")
	if !ok {
		t.Fatal("materialized relation lost across crashes")
	}
	matC, _ := ctl.Executor().Relation("obamamat")
	if got, want := len(matR.Current()), len(matC.Current()); got != want {
		t.Errorf("obamamat: recovered %d rows, control has %d", got, want)
	}
	mrdR, ok := p.Executor().Query("mreader")
	if !ok {
		t.Fatal("mreader query lost across crashes")
	}
	mrdC, _ := ctl.Executor().Query("mreader")
	if !mrdR.LastResult().EqualContents(mrdC.LastResult()) {
		t.Errorf("mreader at instant %d: recovered result differs from control\n recovered: %s\n control:   %s",
			target, mrdR.LastResult(), mrdC.LastResult())
	}

	// The effectful-once guarantee: across all lives, no (address, text)
	// input was physically delivered twice, and nothing was delivered that
	// the control never delivers.
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
	t.Logf("crash harness: %d lives, recovered to instant %d, %d unique deliveries, info=%+v",
		iters, target, len(seen), info)
}
