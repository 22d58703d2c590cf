package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds a fixed registry covering every exposition shape:
// plain and keyed counters, gauges (including a negative value), a plain
// histogram, and a label needing escaping.
func goldenRegistry() *Metrics {
	m := New()
	m.Counter("cq.ticks").Add(42)
	m.Counter(Key("service.invocations", "getTemperature/sensor01")).Add(7)
	m.Counter(Key("service.invocations", `weird"label\n`)).Add(1)
	m.Gauge("cq.queries").Set(3)
	m.Gauge(Key("cq.stream.lag", "temperatures")).Set(-1)
	h := m.Histogram("cq.tick.latency")
	for _, d := range []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, time.Millisecond, 10 * time.Millisecond,
	} {
		h.Observe(d)
	}
	return m
}

func TestWriteOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "openmetrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file (run with -update-golden to regenerate)\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteOpenMetricsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	m := goldenRegistry()
	if err := m.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestOpenMetricsShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE serena_cq_ticks_total counter\n",
		"serena_cq_ticks_total 42\n",
		`serena_service_invocations_total{key="getTemperature/sensor01"} 7`,
		`serena_service_invocations_total{key="weird\"label\\n"} 1`,
		"# TYPE serena_cq_queries gauge\n",
		`serena_cq_stream_lag{key="temperatures"} -1`,
		"# TYPE serena_cq_tick_latency histogram\n",
		"serena_cq_tick_latency_bucket{le=\"+Inf\"} 6\n",
		"serena_cq_tick_latency_count 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Cumulative buckets: every histogram bucket line is non-decreasing.
	var prev int64 = -1
	lines := strings.Split(out, "\n")
	buckets := 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "serena_cq_tick_latency_bucket") {
			continue
		}
		buckets++
		v, err := lastFieldInt(line)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = v
	}
	if buckets != histBuckets {
		t.Fatalf("%d bucket lines, want %d (the overflow bucket shows only as +Inf)", buckets, histBuckets)
	}
	// _sum is in seconds: 11.111ms + 1ms ≈ 0.012111s.
	if !strings.Contains(out, "serena_cq_tick_latency_sum 0.012111\n") {
		t.Errorf("missing seconds-scaled _sum, got:\n%s", out)
	}
}

func TestMetricsEndpointNegotiation(t *testing.T) {
	mux := DebugMux(New(), nil, nil)
	get := func(target, accept string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("GET", target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", target, rec.Code)
		}
		return rec
	}

	// Default (a browser, a curl with no Accept): JSON.
	if ct := get("/metrics", "").Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default Content-Type = %q, want JSON", ct)
	}
	if ct := get("/metrics", "text/html").Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("browser Accept → Content-Type = %q, want JSON", ct)
	}
	// Prometheus scraper: text exposition.
	for _, tc := range []struct{ target, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics?format=openmetrics", ""},
		{"/metrics", "application/openmetrics-text;version=1.0.0,text/plain"},
		{"/metrics", "text/plain;version=0.0.4"},
	} {
		rec := get(tc.target, tc.accept)
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("GET %s (Accept %q): Content-Type = %q, want text exposition", tc.target, tc.accept, ct)
		}
	}
	// Explicit JSON wins over a text Accept header.
	if ct := get("/metrics?format=json", "text/plain").Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("format=json → Content-Type = %q, want JSON", ct)
	}
}

func TestCardinalityGuard(t *testing.T) {
	m := New()
	m.Counter(Key("inv", "a")).Inc()
	for i := 1; i < maxKeyedSeries; i++ {
		m.Counter(Key("inv", "c"+strconv.Itoa(i))).Inc()
	}
	// Past the cap: creations collapse into the overflow series.
	m.Counter(Key("inv", "d")).Inc()
	m.Counter(Key("inv", "e")).Add(2)
	snap := m.Snapshot()
	if _, ok := snap.Counters[Key("inv", "d")]; ok {
		t.Fatal("series past the cap was created")
	}
	if got := snap.Counters[Key("inv", OverflowLabel)]; got != 3 {
		t.Fatalf("overflow series = %d, want 3", got)
	}
	if got := snap.Counters[DroppedSeriesMetric]; got != 2 {
		t.Fatalf("%s = %d, want 2 (one per collapsed creation)", DroppedSeriesMetric, got)
	}
	// Existing series keep working at the cap.
	m.Counter(Key("inv", "a")).Inc()
	if got := m.Counter(Key("inv", "a")).Value(); got != 2 {
		t.Fatalf("pre-cap series = %d, want 2", got)
	}
	// The cap is per base name: a different base still admits series.
	m.Gauge(Key("lag", "x")).Set(1)
	if _, ok := m.Snapshot().Gauges[Key("lag", "x")]; !ok {
		t.Fatal("cap leaked across base names")
	}
	// Unkeyed names are never capped.
	for _, name := range []string{"u1", "u2", "u3", "u4", "u5"} {
		m.Counter(name).Inc()
	}
	if got := m.Counter("u5").Value(); got != 1 {
		t.Fatal("unkeyed metric was capped")
	}
}

func TestCardinalityGuardSharedAcrossKinds(t *testing.T) {
	// The cap counts series per base name across counters, gauges and
	// histograms together.
	m := New()
	for i := 1; i < maxKeyedSeries; i++ {
		m.Counter(Key("x", "c"+strconv.Itoa(i))).Inc()
	}
	m.Gauge(Key("x", "b")).Set(1)
	m.Histogram(Key("x", "c")).Observe(time.Millisecond)
	snap := m.Snapshot()
	if _, ok := snap.Histograms[Key("x", "c")]; ok {
		t.Fatal("series admitted past the cap")
	}
	if _, ok := snap.Histograms[Key("x", OverflowLabel)]; !ok {
		t.Fatal("overflow histogram not created")
	}
}

func TestSplitSeries(t *testing.T) {
	for _, tc := range []struct {
		in, base, label string
		keyed           bool
	}{
		{"plain", "plain", "", false},
		{"a.b{x}", "a.b", "x", true},
		{"a{x/y}", "a", "x/y", true},
		{"trailing{", "trailing{", "", false},
		{"", "", "", false},
	} {
		base, label, keyed := splitSeries(tc.in)
		if base != tc.base || label != tc.label || keyed != tc.keyed {
			t.Errorf("splitSeries(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.in, base, label, keyed, tc.base, tc.label, tc.keyed)
		}
	}
}

// TestHistogramQuantiles strengthens the interpolation contract: a large
// uniform population lands each quantile in its expected bucket.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct {
		q      float64
		lo, hi time.Duration
	}{
		// Exponential buckets are coarse; assert the surrounding octave.
		{0.50, 250 * time.Microsecond, 1100 * time.Microsecond},
		{0.95, 500 * time.Microsecond, 1100 * time.Microsecond},
		{0.99, 500 * time.Microsecond, 1100 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("q%.2f = %s outside [%s, %s]", tc.q, got, tc.lo, tc.hi)
		}
	}
	if h.Quantile(0.5) > h.Quantile(0.95) || h.Quantile(0.95) > h.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
	if h.Quantile(-1) != h.Quantile(0) {
		t.Fatal("q<0 must clamp to q=0")
	}
	if h.Quantile(2) < h.Quantile(0.99) {
		t.Fatal("q>1 must clamp high")
	}
}

// lastFieldInt parses the last whitespace-separated field of an exposition
// line (the sample value) as an integer.
func lastFieldInt(line string) (int64, error) {
	fields := strings.Fields(line)
	return strconv.ParseInt(fields[len(fields)-1], 10, 64)
}
