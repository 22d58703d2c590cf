package pems_test

import (
	"testing"
	"time"

	"serena/internal/pems"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/value"
)

// resilienceScript declares a relation bound to a device that is never
// registered: every invocation fails with "unknown service", exercising the
// β degradation policies end to end through the DDL path.
const resilienceScript = `
PROTOTYPE getTemperature( ) : (temperature REAL );
EXTENDED RELATION probes ( dev SERVICE, temperature REAL VIRTUAL )
  USING BINDING PATTERNS ( getTemperature[dev] );
INSERT INTO probes VALUES (ghost);
`

// TestDDLOnErrorPolicies proves the REGISTER QUERY … ON ERROR clause flows
// through ExecuteDDL into the executor's per-query degradation policy.
func TestDDLOnErrorPolicies(t *testing.T) {
	p := pems.New()
	defer p.Close()
	if err := p.ExecuteDDL(resilienceScript); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(`
		REGISTER QUERY qnull ON ERROR NULL AS invoke[getTemperature](probes);
		REGISTER QUERY qskip ON ERROR SKIP AS invoke[getTemperature](probes);
	`); err != nil {
		t.Fatal(err)
	}
	exec := p.Executor()
	qn, ok := exec.Query("qnull")
	if !ok || qn.Degradation() != resilience.NullFill {
		t.Fatalf("qnull degradation = %v", qn.Degradation())
	}
	qs, ok := exec.Query("qskip")
	if !ok || qs.Degradation() != resilience.SkipTuple {
		t.Fatalf("qskip degradation = %v", qs.Degradation())
	}
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	// NULL keeps the tuple with the virtual attribute unrealized; SKIP
	// drops it.
	if qn.LastResult().Len() != 1 {
		t.Fatalf("qnull result = %d tuples, want 1", qn.LastResult().Len())
	}
	tu := qn.LastResult().Tuples()[0]
	if !tu[len(tu)-1].IsNull() {
		t.Fatalf("qnull tuple not null-filled: %v", tu)
	}
	if qs.LastResult().Len() != 0 {
		t.Fatalf("qskip result = %d tuples, want 0", qs.LastResult().Len())
	}

	// ON ERROR FAIL turns the same failure into a tick error.
	if err := p.ExecuteDDL(`REGISTER QUERY qfail ON ERROR FAIL AS invoke[getTemperature](probes);`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(); err == nil {
		t.Fatal("ON ERROR FAIL did not abort the tick")
	}
	if err := p.UnregisterQuery("qfail"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(); err != nil {
		t.Fatalf("ticks do not recover after unregistering the failing query: %v", err)
	}

	// A bad policy name is rejected at the parser, not silently ignored.
	if err := p.ExecuteDDL(`REGISTER QUERY bad ON ERROR EXPLODE AS invoke[getTemperature](probes);`); err == nil {
		t.Fatal("accepted unknown ON ERROR policy")
	}
}

// TestPEMSResilienceFacade exercises the resilience knobs an embedder sets
// in the PEMS's Config: invocation timeout, retry policy and circuit
// breakers, with DDL running against the configured registry.
func TestPEMSResilienceFacade(t *testing.T) {
	if pems.New().Registry().Breakers() != nil {
		t.Fatal("breakers reported without Config.Breakers")
	}
	p := pems.New(pems.WithConfig(pems.Config{Registry: service.Options{
		InvokeTimeout: 50 * time.Millisecond,
		Retry:         resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breakers:      &resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour},
	}}))
	defer p.Close()
	breakers := p.Registry().Breakers()
	if err := p.ExecuteDDL(resilienceScript); err != nil {
		t.Fatal(err)
	}
	// An unknown service fails validation before the breaker is consulted;
	// force a tracked failure through the registry directly.
	if _, err := p.Registry().Invoke("getTemperature", "ghost", value.Tuple{}, 0); err == nil {
		t.Fatal("ghost invocation succeeded")
	}
	if states := breakers.States(); len(states) != 0 {
		// Unknown-service errors never reach a breaker — nothing tracked.
		t.Fatalf("unexpected breaker states: %v", states)
	}
}
