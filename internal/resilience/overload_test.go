package resilience

import (
	"testing"
	"time"
)

func TestOverloadPolicyRoundTrip(t *testing.T) {
	for _, p := range []OverloadPolicy{Block, ShedOldest, ShedNewest} {
		got, err := ParseOverloadPolicy(p.String())
		if err != nil {
			t.Fatalf("ParseOverloadPolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %v -> %q -> %v", p, p.String(), got)
		}
	}
	if p, err := ParseOverloadPolicy("shed_oldest"); err != nil || p != ShedOldest {
		t.Fatalf("case-insensitive parse: %v, %v", p, err)
	}
	if _, err := ParseOverloadPolicy("bogus"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

func TestFaultPlanDelayDeterministic(t *testing.T) {
	p := &FaultPlan{Seed: 7, Latency: 2 * time.Millisecond, LatencyJitter: 8 * time.Millisecond}
	d1 := p.Delay(42, "svc|proto|k")
	d2 := p.Delay(42, "svc|proto|k")
	if d1 != d2 {
		t.Fatalf("delay not deterministic: %v vs %v", d1, d2)
	}
	if d1 < 2*time.Millisecond || d1 >= 10*time.Millisecond {
		t.Fatalf("delay out of range: %v", d1)
	}
	// Different keys should (for this seed) spread across the jitter range.
	seen := map[time.Duration]bool{}
	for i := 0; i < 16; i++ {
		seen[p.Delay(int64(i), "k")] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant delay across instants")
	}
	var nilPlan *FaultPlan
	if nilPlan.Delay(1, "x") != 0 {
		t.Fatal("nil plan must not delay")
	}
}

func TestFaultPlanStall(t *testing.T) {
	p := &FaultPlan{StallIntervals: [][2]int64{{5, 9}}, StallFor: 50 * time.Millisecond}
	if d := p.StallDuration(4); d != 0 {
		t.Fatalf("instant 4 should not stall, got %v", d)
	}
	if d := p.StallDuration(7); d != 50*time.Millisecond {
		t.Fatalf("instant 7 stall: %v", d)
	}
	dflt := &FaultPlan{StallIntervals: [][2]int64{{0, 0}}}
	if d := dflt.StallDuration(0); d != time.Minute {
		t.Fatalf("default stall duration: %v", d)
	}
}
