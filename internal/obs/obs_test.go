package obs

import (
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	m := New()
	c := m.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters never decrease
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if m.Counter("c") != c {
		t.Fatal("Counter not idempotent")
	}
	g := m.Gauge("g")
	g.Set(9)
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	m := New()
	h := m.Histogram("h")
	for _, d := range []time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	wantSum := 11111 * time.Microsecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %s, want %s", h.Sum(), wantSum)
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("max = %s", h.Max())
	}
	if h.Mean() != wantSum/5 {
		t.Fatalf("mean = %s", h.Mean())
	}
	p50 := h.Quantile(0.5)
	if p50 < 10*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %s outside [10µs, 1ms]", p50)
	}
	if q := h.Quantile(1.0); q > h.Max()*2 {
		t.Fatalf("p100 = %s way above max %s", q, h.Max())
	}
	if h.Quantile(0.5) > h.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
	// Negative durations clamp rather than corrupt.
	h.Observe(-time.Second)
	if h.Sum() != wantSum {
		t.Fatalf("negative observation changed sum: %s", h.Sum())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(int64(c.d)); got != c.want {
			t.Errorf("bucketOf(%s) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestSnapshotAndReset(t *testing.T) {
	m := New()
	c := m.Counter("queries")
	c.Add(3)
	m.Gauge("lag").Set(2)
	m.Histogram("lat").Observe(time.Millisecond)

	s := m.Snapshot()
	if s.Counters["queries"] != 3 || s.Gauges["lag"] != 2 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	text := s.Render()
	for _, want := range []string{"queries", "lag", "lat", "count=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render() missing %q:\n%s", want, text)
		}
	}

	m.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero cached counter pointer")
	}
	s = m.Snapshot()
	if s.Counters["queries"] != 0 || s.Gauges["lag"] != 0 || s.Histograms["lat"].Count != 0 {
		t.Fatalf("snapshot after reset: %+v", s)
	}
}

func TestKey(t *testing.T) {
	if got := Key("service.invoke.calls", "p|s"); got != "service.invoke.calls{p|s}" {
		t.Fatalf("Key = %q", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	m := New()
	m.Counter("a").Inc()
	m.Histogram("h").Observe(time.Millisecond)
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["a"] != 1 || round.Histograms["h"].Count != 1 {
		t.Fatalf("round trip: %+v", round)
	}
}

func TestPublishExpvar(t *testing.T) {
	PublishExpvar()
	PublishExpvar() // idempotent
	v := expvar.Get("serena")
	if v == nil {
		t.Fatal("expvar key serena not published")
	}
	// Default is process-global: a repeated run (-count=2) finds the
	// counter already raised, so assert the growth, not the value.
	c := Default.Counter("expvar.test")
	before := c.Value()
	c.Add(7)
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar payload not JSON: %v", err)
	}
	if got := s.Counters["expvar.test"] - before; got != 7 {
		t.Fatalf("expvar counter grew by %d, want 7: %+v", got, s.Counters)
	}
}

// TestConcurrentExactness hammers one registry from many goroutines and
// asserts no increment is lost — the property the rest of the stack relies
// on under go test -race.
func TestConcurrentExactness(t *testing.T) {
	const workers = 16
	const perWorker = 2000
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Counter("shared").Inc()
				m.Counter(Key("keyed", []string{"a", "b", "c"}[i%3])).Inc()
				m.Gauge("level").Set(int64(i))
				m.Histogram("lat").Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()

	if got := m.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	var keyed int64
	for _, k := range []string{"a", "b", "c"} {
		keyed += m.Counter(Key("keyed", k)).Value()
	}
	if keyed != workers*perWorker {
		t.Fatalf("keyed counters sum = %d, want %d", keyed, workers*perWorker)
	}
	if got := m.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}
