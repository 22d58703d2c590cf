package pems_test

import (
	"strings"
	"testing"
	"time"

	"serena/internal/cq"
	"serena/internal/pems"
	"serena/internal/value"
)

// TestOverloadFacade drives the end-to-end overload surface through PEMS:
// DDL-declared ingest buffer, Offer/drain on tick, tick budget + overruns
// from the Config, and the report the shell's .overload command prints.
func TestOverloadFacade(t *testing.T) {
	// The buffer policy is the DDL's; budget + coalescing are Config knobs.
	p := pems.New(pems.WithConfig(pems.Config{Executor: cq.Options{TickBudget: time.Nanosecond, Coalesce: true}}))
	defer p.Close()
	const ddlSrc = `
EXTENDED RELATION readings ( v INTEGER ) ON OVERLOAD SHED_NEWEST CAPACITY 2;
`
	if err := p.ExecuteDDL(ddlSrc); err != nil {
		t.Fatal(err)
	}
	// The DDL clause installed the buffer: offers beyond capacity shed.
	for i := 0; i < 5; i++ {
		if err := p.Offer("readings", value.Tuple{value.NewInt(int64(i))}); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	at := p.Executor().Now()
	rel, err := p.Env(at).Relation("readings")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("drained %d tuples, want 2 (capacity)", rel.Len())
	}

	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Executor().TickOverruns() == 0 {
		t.Fatal("1ns budget produced no overruns")
	}

	rep := p.OverloadReport()
	for _, want := range []string{"tick budget:", "1ns", "coalescing: true", "readings", "SHED_NEWEST cap 2", "shed 3"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestCloseUnblocksBlockedProducer: a producer blocked on a full BLOCK
// buffer returns an error once the PEMS closes, instead of waiting for a
// tick that never comes.
func TestCloseUnblocksBlockedProducer(t *testing.T) {
	p := pems.New()
	defer p.Close()
	if err := p.ExecuteDDL(`EXTENDED STREAM readings ( v INTEGER ) ON OVERLOAD BLOCK CAPACITY 1;`); err != nil {
		t.Fatal(err)
	}
	if err := p.Offer("readings", value.Tuple{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Offer("readings", value.Tuple{value.NewInt(2)}) }()
	select {
	case err := <-done:
		t.Fatalf("offer into a full BLOCK buffer returned before Close: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("offer into a closed PEMS succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked 5s after Close")
	}
}
