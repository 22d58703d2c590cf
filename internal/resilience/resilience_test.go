package resilience

import (
	"context"
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]DegradationPolicy{
		"FAIL": FailFast, "fail": FailFast, "FailFast": FailFast,
		"SKIP": SkipTuple, "skiptuple": SkipTuple,
		"NULL": NullFill, "nullfill": NullFill,
		"": Default, "default": Default,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if NullFill.String() != "NULL" || FailFast.String() != "FAIL" || SkipTuple.String() != "SKIP" {
		t.Error("policy rendering broken")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond, Multiplier: 2}
	if d := p.Backoff(0, "k"); d != 10*time.Millisecond {
		t.Fatalf("first backoff = %v", d)
	}
	if d := p.Backoff(1, "k"); d != 20*time.Millisecond {
		t.Fatalf("second backoff = %v", d)
	}
	if d := p.Backoff(4, "k"); d != 35*time.Millisecond {
		t.Fatalf("capped backoff = %v", d)
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	p := DefaultRetry()
	a, b := p.Backoff(1, "sensor01"), p.Backoff(1, "sensor01")
	if a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	// Jitter stays within ±20% of the nominal 20ms.
	lo, hi := 16*time.Millisecond, 24*time.Millisecond
	if a < lo || a > hi {
		t.Fatalf("jittered backoff %v outside [%v, %v]", a, lo, hi)
	}
	if p.Backoff(1, "sensor01") == p.Backoff(1, "sensor02") {
		t.Fatal("jitter does not decorrelate keys")
	}
}

func TestSleepCtxHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepCtx(ctx, time.Minute); err == nil {
		t.Fatal("cancelled sleep returned nil")
	}
	if err := SleepCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDeterministicAndSpread(t *testing.T) {
	if Uniform("a", 1) != Uniform("a", 1) {
		t.Fatal("Uniform not deterministic")
	}
	if Uniform("a", 1) == Uniform("a", 2) || Uniform("a", 1) == Uniform("b", 1) {
		t.Fatal("Uniform ignores seed or key")
	}
	// Rough uniformity: mean of many draws near 0.5.
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		u := Uniform(string(rune('A'+i%26))+string(rune(i)), 7)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Uniform mean = %v", mean)
	}
}

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerPolicy{FailureThreshold: 3, Cooldown: time.Second, Now: clk.now})

	// Closed: failures below the threshold keep it closed; a success
	// resets the streak.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused a call")
		}
		b.Failure()
	}
	b.Success()
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Failure()
	}
	if b.State() != Closed {
		t.Fatalf("state after reset+2 failures = %v", b.State())
	}

	// Third consecutive failure trips it open.
	b.Allow()
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}

	// Cooldown elapses → half-open admits exactly one probe.
	clk.advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe re-opens (and restarts the cooldown).
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("recovered breaker refused a call")
	}
}

func TestBreakerSet(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := NewBreakerSet(BreakerPolicy{FailureThreshold: 1, Cooldown: time.Minute, Now: clk.now})
	if !s.Allow("never-seen") {
		t.Fatal("untracked key refused")
	}
	if s.State("never-seen") != Closed {
		t.Fatal("untracked key not closed")
	}
	s.OnResult("cam", false)
	if s.Allow("cam") {
		t.Fatal("open key allowed")
	}
	states := s.States()
	if states["cam"] != Open {
		t.Fatalf("states = %v", states)
	}
	s.Reset("cam")
	if !s.Allow("cam") {
		t.Fatal("reset key refused")
	}
}

func TestFaultPlanDeterministicRate(t *testing.T) {
	p := &FaultPlan{Seed: 42, FailureRate: 0.3}
	fails := 0
	const n = 1000
	for i := 0; i < n; i++ {
		k := "svc" + string(rune(i))
		if p.ShouldFail(int64(i), k) != p.ShouldFail(int64(i), k) {
			t.Fatal("plan not deterministic")
		}
		if p.ShouldFail(int64(i), k) {
			fails++
		}
	}
	if fails < 250 || fails > 350 {
		t.Fatalf("30%% plan failed %d/%d calls", fails, n)
	}
}

func TestFaultPlanIntervalsAndFlap(t *testing.T) {
	p := &FaultPlan{DownIntervals: [][2]int64{{5, 7}}}
	for at := int64(0); at < 10; at++ {
		want := at >= 5 && at <= 7
		if p.ShouldFail(at, "x") != want {
			t.Fatalf("interval plan at %d = %v", at, !want)
		}
	}
	flap := &FaultPlan{FlapPeriod: 3}
	// Up for [0,3), down for [3,6), up for [6,9)…
	for at, want := range map[int64]bool{0: false, 2: false, 3: true, 5: true, 6: false} {
		if flap.ShouldFail(at, "x") != want {
			t.Fatalf("flap plan at %d = %v", at, !want)
		}
	}
	var nilPlan *FaultPlan
	if nilPlan.ShouldFail(0, "x") {
		t.Fatal("nil plan injected a fault")
	}
}
