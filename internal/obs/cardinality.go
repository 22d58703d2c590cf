package obs

// Cardinality guard: keyed series (per-(proto,ref) invocation bundles,
// per-relation lag gauges, per-query eval gauges — anything created through
// Key(name, label)) are driven by dynamic environment content, so millions
// of discovered services must not grow the registry unboundedly. Each base
// name admits at most maxKeyedSeries distinct labels; past the cap, new
// labels collapse into one overflow series Key(base, OverflowLabel) and the
// obs.dropped_series counter records every collapsed creation. Unkeyed
// metrics (static package-level names) are never capped.

// OverflowLabel is the label of the per-base overflow series that absorbs
// keyed metrics created past the cardinality cap.
const OverflowLabel = "__overflow__"

// DroppedSeriesMetric counts keyed series creations redirected to an
// overflow series because their base name was at the cardinality cap.
const DroppedSeriesMetric = "obs.dropped_series"

// maxKeyedSeries is the per-base-name cap on keyed series.
const maxKeyedSeries = 1024

// splitSeries splits a metric name produced by Key into its base name and
// label. keyed is false for plain (unkeyed) names.
func splitSeries(name string) (base, label string, keyed bool) {
	if len(name) == 0 || name[len(name)-1] != '}' {
		return name, "", false
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i+1 : len(name)-1], true
		}
	}
	return name, "", false
}

// admitLocked gates the creation of a new series (write lock held). It
// returns the name to create: unkeyed names and labels under the cap pass
// through; a keyed name past its base's cap is redirected to the base's
// overflow series, with the drop counted.
func (m *Metrics) admitLocked(name string) string {
	base, label, keyed := splitSeries(name)
	if !keyed || label == OverflowLabel {
		return name
	}
	if m.seriesCount[base] >= maxKeyedSeries {
		// Direct map access — the registry lock is already held, so going
		// through Counter() here would deadlock.
		c := m.counters[DroppedSeriesMetric]
		if c == nil {
			c = &Counter{}
			m.counters[DroppedSeriesMetric] = c
		}
		c.Inc()
		return Key(base, OverflowLabel)
	}
	m.seriesCount[base]++
	return name
}
