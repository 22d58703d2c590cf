package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
	// Portable metrics are counts made by the Go runtime, not timings; they
	// may be compared across machines.
	Portable bool
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, Portable: true},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.02, Portable: true},
	{Name: "heap_mb_end", Unit: "MiB", Better: "lower", Bound: 0.05},
}

// perLayer lists every per-layer metric of a traced run. A metric whose
// layer takes no part in a workload, or whose probe belongs to another
// workload, reads 0 there.
var perLayer = []metricDef{
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "stream.offer_us_per_op", Unit: "us", Better: "lower"},
	{Name: "stream.ingest_depth_max", Unit: "count", Better: "lower"},
	{Name: "stream.retained_events_end", Unit: "count", Better: "lower"},
	{Name: "stream.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.events_in_us_n4k", Unit: "us", Better: "lower"},

	{Name: "value.key_ns", Unit: "ns", Better: "lower"},
	{Name: "value.key_allocs", Unit: "count", Better: "lower"},

	{Name: "cq.tick_us_per_op", Unit: "us", Better: "lower"},
	{Name: "cq.other_us_per_op", Unit: "us", Better: "lower"},
	{Name: "cq.other_share", Unit: "ratio", Better: "lower"},
	{Name: "cq.eval_us_per_op.rollup", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.rollmeans", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.rollhot", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.alerts", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.quality", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.feed", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.photos", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.w", Unit: "us", Better: "lower"},
	{Name: "cq.eval_us_per_op.j", Unit: "us", Better: "lower"},
	{Name: "cq.delta_tick_share", Unit: "ratio", Better: "higher"},
	{Name: "cq.checkpoint_tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cq.checkpoint_ticks", Unit: "count", Better: "lower"},

	{Name: "algebra.select_us_n1k", Unit: "us", Better: "lower"},
	{Name: "algebra.join_us_n1k", Unit: "us", Better: "lower"},
	{Name: "algebra.join_allocs_n1k", Unit: "count", Better: "lower"},
	{Name: "algebra.aggregate_us_n1k", Unit: "us", Better: "lower"},
	{Name: "algebra.aggregate_allocs_n1k", Unit: "count", Better: "lower"},
	{Name: "algebra.delta_join_us_c16_n4k", Unit: "us", Better: "lower"},
	{Name: "algebra.delta_aggregate_us_c16_n4k", Unit: "us", Better: "lower"},
	{Name: "algebra.delta_select_us_c16_n4k", Unit: "us", Better: "lower"},

	{Name: "query.passive_per_op", Unit: "count", Better: "lower"},
	{Name: "query.active_per_op", Unit: "count", Better: "lower"},
	{Name: "query.memoized_per_op", Unit: "count", Better: "higher"},
	{Name: "query.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.evaluate_us_hybrid_n1k", Unit: "us", Better: "lower"},

	{Name: "service.physical_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "service.stub_us_per_op", Unit: "us", Better: "lower"},
	{Name: "service.invoke_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.added_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wire.invoke_us", Unit: "us", Better: "lower"},
	{Name: "wire.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.invoke_us_blob4k", Unit: "us", Better: "lower"},
	{Name: "wire.batch16_us", Unit: "us", Better: "lower"},

	{Name: "discovery.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.converge_polls", Unit: "count", Better: "lower"},

	{Name: "wal.begin_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wal.commit_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wal.log_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "wal.intent_us_per_call", Unit: "us", Better: "lower"},
	{Name: "wal.result_us_per_call", Unit: "us", Better: "lower"},
	{Name: "wal.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_mb_end", Unit: "MiB", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.replay_records", Unit: "count", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_us_interval", Unit: "us", Better: "lower"},

	{Name: "sal.parse_us", Unit: "us", Better: "lower"},
	{Name: "ssql.compile_us", Unit: "us", Better: "lower"},
	{Name: "ddl.parse_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.plan_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.pushdown_us", Unit: "us", Better: "lower"},

	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.span_ns_unsampled", Unit: "ns", Better: "lower"},

	{Name: "runtime.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	New  func(config) workload
}

var workloads = []workloadDef{
	{
		Name: "surveillance",
		Why:  "every layer shares one tick (ingest, delta, INTO cascade, wire, WAL, telemetry), so a saving shows at its true share",
		New:  func(c config) workload { return newSurveillance(c) },
	},
	{
		Name: "remote_beta",
		Why:  "64 polls and both kinds of invocation cross the loopback wire every instant; wire, service and per-intent WAL flushes dominate",
		New:  func(c config) workload { return newRemoteBeta(c) },
	},
	{
		Name: "window_churn",
		Why:  "4096-tuple windows with 0.8% churn, no WAL or wire: isolates the delta evaluator, where O(changes) work shows",
		New:  func(c config) workload { return newWindowChurn(c) },
	},
	{
		Name: "oneshot",
		Why:  "parse, plan and evaluate eight one-shot query texts; the control on which delta, WAL and wire changes must not show",
		New:  func(c config) workload { return newOneShot(c) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
