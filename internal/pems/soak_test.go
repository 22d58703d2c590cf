package pems_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"serena/internal/cq"
	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/value"
)

// The overload soak drives a PEMS well past its sustainable rate — a
// producer flooding a bounded SHED_NEWEST stream, latency-faulted service
// invocations, a tick budget tight enough that every tick overruns and
// passive coalescing all on at once — and asserts the
// overload machinery keeps its promises: sheds are honored and counted,
// buffer depth and retained stream state stay bounded, and the ACTION SET of
// the active query is exactly what an unloaded control run produces
// (Definition 8 is load-invariant).

const soakPrototypes = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
`

const soakTables = `
EXTENDED STREAM readings ( v INTEGER ) ON OVERLOAD SHED_NEWEST CAPACITY 64;
EXTENDED STREAM events ( title STRING );
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
INSERT INTO contacts VALUES ("Carla", "carla@elysee.fr", email);
`

const (
	soakPassiveQ = `window[4](readings)`
	soakActiveQ  = `invoke[sendMessage](assign[text := title](join(
		select[name = "Carla"](contacts),
		project[title](window[3600](events)))))`
)

// buildSoakEnv assembles the scenario; faulty selects whether the messenger
// is wrapped in deterministic latency faults (the overloaded run) or bare
// (the control run).
func buildSoakEnv(t *testing.T, faulty bool) *pems.PEMS {
	t.Helper()
	var cfg pems.Config
	if faulty {
		// Far below the faulted β latency: ticks overrun.
		cfg.Executor = cq.Options{TickBudget: 100 * time.Microsecond, Coalesce: true}
	}
	p := pems.New(pems.WithConfig(cfg))
	t.Cleanup(p.Close)
	if err := p.ExecuteDDL(soakPrototypes); err != nil {
		t.Fatal(err)
	}
	var messenger service.Service = device.NewMessenger("email")
	if faulty {
		messenger = service.NewFaulty(messenger, &resilience.FaultPlan{
			Latency:       200 * time.Microsecond,
			LatencyJitter: 300 * time.Microsecond,
			Seed:          7,
		})
	}
	if err := p.Registry().Register(messenger); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(soakTables); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("hot", soakPassiveQ, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterQuery("forward", soakActiveQ, false); err != nil {
		t.Fatal(err)
	}
	return p
}

// runSoakTicks inserts one deterministic event per instant and ticks; both
// the overloaded and the control run execute this exact schedule, so the
// active query's input — and therefore its action set — must come out
// identical.
func runSoakTicks(t *testing.T, p *pems.PEMS, ticks int, perTick func(i int)) {
	t.Helper()
	ev, ok := p.Executor().Relation("events")
	if !ok {
		t.Fatal("events stream missing")
	}
	for i := 0; i < ticks; i++ {
		title := fmt.Sprintf("evt-%03d", i)
		if err := ev.Insert(p.Executor().Now()+1, value.Tuple{value.NewString(title)}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Tick(); err != nil {
			t.Fatal(err)
		}
		if perTick != nil {
			perTick(i)
		}
	}
}

func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	ticks := 150
	p := buildSoakEnv(t, true)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		// On failure, dump the engine's metrics for the CI artifact.
		if path := os.Getenv("SOAK_DUMP"); path != "" {
			_ = os.WriteFile(path, []byte(p.Registry().Metrics().Snapshot().Render()), 0o644)
		}
	})

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// The producer floods the bounded stream flat-out — far beyond the
	// 64-per-tick drain capacity, the "~2× overload" of the harness in
	// spirit and then some.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Offer("readings", value.Tuple{value.NewInt(int64(i))}); err != nil {
				t.Errorf("offer: %v", err)
				return
			}
		}
	}()

	readings, _ := p.Executor().Relation("readings")
	maxDepth, maxEvents := 0, 0
	runSoakTicks(t, p, ticks, func(int) {
		if d := readings.IngestDepth(); d > maxDepth {
			maxDepth = d
		}
		if n := readings.EventCount(); n > maxEvents {
			maxEvents = n
		}
	})
	close(stop)
	wg.Wait()

	// Sheds were honored and counted; the buffer never exceeded capacity.
	offered, shed := readings.IngestStats()
	if shed == 0 {
		t.Fatalf("flooding a 64-cap buffer shed nothing (offered %d)", offered)
	}
	if maxDepth > 64 {
		t.Fatalf("ingest depth %d exceeded capacity 64", maxDepth)
	}
	// Retained stream state stays bounded by drain rate × window, not by
	// the offered volume.
	if maxEvents > 64*(4+2) {
		t.Fatalf("readings retained %d events; window trimming not holding", maxEvents)
	}
	if p.Executor().TickOverruns() == 0 {
		t.Fatal("100µs budget never overran under faulted invocations")
	}
	hot, _ := p.Executor().Query("hot")
	if hot.Coalesced() == 0 {
		t.Fatal("passive query never coalesced despite constant overruns")
	}
	forward, _ := p.Executor().Query("forward")
	if forward.Coalesced() != 0 {
		t.Fatal("active query was coalesced — action soundness violated")
	}

	// Memory stays bounded: the run handled hundreds of thousands of
	// offered tuples through a 64-slot buffer; heap growth must reflect the
	// buffer, not the offered volume.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<20 {
		t.Fatalf("heap grew %d MiB over the soak", grew>>20)
	}

	// The unloaded control: same event schedule, no flood, no faults, no
	// budget. The overloaded action set must be EXACTLY
	// the control's.
	ctl := buildSoakEnv(t, false)
	runSoakTicks(t, ctl, ticks, nil)
	ctlForward, _ := ctl.Executor().Query("forward")
	if forward.Actions().Len() == 0 {
		t.Fatal("soak produced no actions; harness generated no load")
	}
	if !forward.Actions().Equal(ctlForward.Actions()) {
		t.Fatalf("overloaded action set differs from control\n overloaded: %s\n control:    %s",
			forward.Actions(), ctlForward.Actions())
	}
	t.Logf("soak: %d ticks, %d offered, %d shed, max depth %d, %d overruns, %d coalesced evals, %d actions",
		ticks, offered, shed, maxDepth, p.Executor().TickOverruns(), hot.Coalesced(), forward.Actions().Len())
}
