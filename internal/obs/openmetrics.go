package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteOpenMetrics renders the registry in the Prometheus text exposition
// format (version 0.0.4, which OpenMetrics scrapers also accept):
//
//   - counters as <serena_name>_total counter families
//   - gauges as gauge families
//   - histograms as histogram families with cumulative le buckets in
//     seconds plus _sum and _count
//
// Metric names are prefixed serena_ and sanitized (dots → underscores);
// keyed series Key(name, label) become one family with a key="label" label
// per series. Output is fully sorted, so it is deterministic for a fixed
// set of values (golden-testable). Values are read atomically but the
// exposition as a whole is not a transaction — same contract as Snapshot.
func (m *Metrics) WriteOpenMetrics(w io.Writer) error {
	m.mu.RLock()
	counters := make(map[string]*Counter, len(m.counters))
	for name, c := range m.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g
	}
	histograms := make(map[string]*Histogram, len(m.histograms))
	for name, h := range m.histograms {
		histograms[name] = h
	}
	m.mu.RUnlock()

	var b strings.Builder
	for _, fam := range groupFamilies(counters) {
		fmt.Fprintf(&b, "# TYPE %s_total counter\n", fam.name)
		for _, s := range fam.series {
			fmt.Fprintf(&b, "%s_total%s %d\n", fam.name, s.labels, counters[s.key].Value())
		}
	}
	for _, fam := range groupFamilies(gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n", fam.name)
		for _, s := range fam.series {
			fmt.Fprintf(&b, "%s%s %d\n", fam.name, s.labels, gauges[s.key].Value())
		}
	}
	for _, fam := range groupFamilies(histograms) {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", fam.name)
		for _, s := range fam.series {
			writeHistogramSeries(&b, fam.name, s.labels, histograms[s.key])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogramSeries renders one histogram series: cumulative buckets
// (le upper bounds in seconds), the mandatory +Inf bucket, _sum and _count.
// The overflow bucket has no upper bound, so it shows only in +Inf.
func writeHistogramSeries(b *strings.Builder, name, labels string, h *Histogram) {
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += h.buckets[i].Load()
		le := strconv.FormatFloat(float64(bucketLower(i+1))/1e9, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="`+le+`"`), cum)
	}
	count := h.Count()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), count)
	sum := strconv.FormatFloat(float64(h.sum.Load())/1e9, 'g', -1, 64)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, count)
}

// family is one exposition metric family: a sanitized name and its series
// (an unkeyed metric is a single series with no labels).
type family struct {
	name   string
	series []series
}

type series struct {
	key    string // registry key (original name)
	labels string // rendered label set, "" or `{key="..."}`
}

// groupFamilies buckets registry keys by sanitized family name, sorted for
// deterministic output.
func groupFamilies[M any](metrics map[string]M) []family {
	byName := map[string][]series{}
	for key := range metrics {
		base, label, keyed := splitSeries(key)
		name := sanitizeMetricName(base)
		var labels string
		if keyed {
			labels = `{key="` + escapeLabel(label) + `"}`
		}
		byName[name] = append(byName[name], series{key: key, labels: labels})
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]family, 0, len(names))
	for _, name := range names {
		ss := byName[name]
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		out = append(out, family{name: name, series: ss})
	}
	return out
}

// mergeLabels appends one label pair to a rendered label set.
func mergeLabels(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// sanitizeMetricName maps a registry name onto the Prometheus metric name
// charset [a-zA-Z0-9_:], prefixed with serena_ (dots become underscores).
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.WriteString("serena_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}
