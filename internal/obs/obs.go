// Package obs is the observability core for serena: lock-free counters,
// gauges, and latency histograms behind a named registry, exportable as a
// point-in-time snapshot or in the Prometheus text format.
//
// The package is a dependency-free leaf (it imports only the standard
// library) so every layer of the stack — the service registry, the wire
// protocol, circuit breakers, the continuous-query executor — can record
// into it without import cycles.
//
// A registry belongs to one engine: each service.Registry creates one, and
// every layer reaches it through the registry it already holds. Hot paths
// look a metric up once and keep the pointer in their own struct:
//
//	calls := reg.Metrics().Counter("service.invoke.calls")
//
// Counter/Gauge/Histogram methods are a single atomic op, so always-on
// instrumentation stays within the ≤5% overhead budget.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use and all methods are safe for concurrent access.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Next adds one and returns the new count. Hot paths use the return value
// for 1-in-N sampling decisions without a second atomic read.
func (c *Counter) Next() int64 { return c.v.Add(1) }

// Add adds n (n may be zero; negative deltas are ignored so a counter never
// decreases).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-observation-wins integer metric (queue depths, lags,
// breaker states). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the last recorded level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets exponential buckets: bucket i holds observations in
// [1µs·2^i, 1µs·2^(i+1)); bucket 0 also absorbs sub-microsecond
// observations, and the last bucket is the unbounded overflow bucket: it
// holds everything ≥ 2^23 µs (~8.4s).
const histBuckets = 24

// Histogram records durations in exponential buckets. The zero value is
// ready to use and all methods are safe for concurrent access.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

func bucketOf(ns int64) int {
	us := ns / 1e3
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLower returns the inclusive lower bound of bucket i in nanoseconds.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1e3) << uint(i)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket histogram,
// interpolating linearly inside the winning bucket; the overflow bucket
// interpolates up to Max. Estimates are coarse (factor-of-two buckets) but
// monotone, cheap, and never above Max.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var seen float64
	for i := 0; i < histBuckets; i++ {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi, top := float64(bucketLower(i)), float64(bucketLower(i+1)), float64(h.max.Load())
			if i == histBuckets-1 || hi > top {
				hi = top
			}
			return time.Duration(lo + (hi-lo)*(rank-seen)/c)
		}
		seen += c
	}
	return h.Max()
}

// HistogramStats is a point-in-time summary of a Histogram.
type HistogramStats struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Stats summarises the histogram.
func (h *Histogram) Stats() HistogramStats {
	return HistogramStats{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Metrics is a named registry of counters, gauges, and histograms.
// Get-or-create lookups take a read lock on the fast path; the returned
// pointers may be cached indefinitely.
type Metrics struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// Cardinality guard (see cardinality.go): seriesCount tracks, per base
	// name, how many keyed series exist across all three kinds.
	seriesCount map[string]int
}

// New returns an empty registry.
func New() *Metrics {
	return &Metrics{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		histograms:  make(map[string]*Histogram),
		seriesCount: make(map[string]int),
	}
}

// Key composes a metric name with a dynamic label, e.g.
// Key("service.invoke.calls", "getTemperature|sensor1") →
// "service.invoke.calls{getTemperature|sensor1}".
func Key(name, label string) string {
	return name + "{" + label + "}"
}

// Counter returns the counter registered under name, creating it if needed.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c != nil {
		return c
	}
	name = m.admitLocked(name)
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g != nil {
		return g
	}
	name = m.admitLocked(name)
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.RLock()
	h := m.histograms[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.histograms[name]; h != nil {
		return h
	}
	name = m.admitLocked(name)
	if h = m.histograms[name]; h == nil {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}

// Snapshot is a consistent-enough point-in-time copy of a registry: each
// metric is read atomically, though the set as a whole is not a transaction.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot captures the current value of every registered metric.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Gauges:     make(map[string]int64, len(m.gauges)),
		Histograms: make(map[string]HistogramStats, len(m.histograms)),
	}
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range m.histograms {
		s.Histograms[name] = h.Stats()
	}
	return s
}

// Render formats the snapshot as sorted human-readable text, one metric per
// line, for the shell's .metrics command and /debug/serena.
func (s Snapshot) Render() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-60s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-60s %d\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%-60s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
			name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	return b.String()
}
