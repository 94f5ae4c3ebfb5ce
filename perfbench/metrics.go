package main

// metricDef is one entry of the metric catalogue.  BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// self-test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, all host time.
// runs and runs_failed are reported as the result's attempted and failed.
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_req_per_s", "req/s", "higher", 0.25},
	{"era_wall_ms_p50", "ms", "lower", 0.25},
	{"era_wall_ms_p90", "ms", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"allocs_m", "millions", "lower", 0.05},
	{"peak_live_heap_mb", "MB", "lower", 0.05},
}

// perLayer are the traced run's numbers, named after the repository's
// modules.  Counts are sim-side totals; *_ns, *_us and *_bytes are host
// cost per call of each layer's hot public function; *.share is in-run
// calls times cost per call over the traced run's wall time.
var perLayer = []metricDef{
	{name: "simclock.events", unit: "count", better: "lower"},
	{name: "simclock.epochs", unit: "count", better: "lower"},
	{name: "simclock.mailbox_posts", unit: "count", better: "lower"},
	{name: "simclock.shard_util_min", unit: "ratio", better: "higher"},
	{name: "simclock.shard_util_mean", unit: "ratio", better: "higher"},
	{name: "pcam.submits", unit: "count", better: "higher"},
	{name: "pcam.rejuvenations", unit: "count", better: "higher"},
	{name: "pcam.proactive_ratio", unit: "ratio", better: "higher"},
	{name: "cloudsim.vms", unit: "count", better: "lower"},
	{name: "cloudsim.dropped", unit: "count", better: "lower"},
	{name: "workload.issued", unit: "count", better: "higher"},
	{name: "workload.timeouts", unit: "count", better: "lower"},
	{name: "workload.success_ratio", unit: "ratio", better: "higher"},
	{name: "acm.eras", unit: "count", better: "higher"},
	{name: "acm.forwarded", unit: "count", better: "lower"},
	{name: "gslb.routed", unit: "count", better: "higher"},
	{name: "gslb.probes", unit: "count", better: "lower"},
	{name: "tracing.traces", unit: "count", better: "higher"},

	{name: "simclock.sched_pop_ns", unit: "ns", better: "lower"},
	{name: "simclock.post_drain_ns", unit: "ns", better: "lower"},
	{name: "cloudsim.sample_ns", unit: "ns", better: "lower"},
	{name: "cloudsim.sample_bytes", unit: "B", better: "lower"},
	{name: "pcam.tick_us", unit: "us", better: "lower"},
	{name: "pcam.submit_ns", unit: "ns", better: "lower"},
	{name: "overlay.latency_ns", unit: "ns", better: "lower"},
	{name: "gslb.route_ns", unit: "ns", better: "lower"},
	{name: "workload.pick_ns", unit: "ns", better: "lower"},
	{name: "workload.pick_bytes", unit: "B", better: "lower"},
	{name: "workload.cohort_tick_us", unit: "us", better: "lower"},
	{name: "tracing.span_ns", unit: "ns", better: "lower"},
	{name: "core.policy_us", unit: "us", better: "lower"},
	{name: "backend.new_ms", unit: "ms", better: "lower"},

	{name: "simclock.share", unit: "ratio", better: "lower"},
	{name: "cloudsim.share", unit: "ratio", better: "lower"},
	{name: "pcam.share", unit: "ratio", better: "lower"},
	{name: "overlay.share", unit: "ratio", better: "lower"},
	{name: "gslb.share", unit: "ratio", better: "lower"},
	{name: "workload.share", unit: "ratio", better: "lower"},
	{name: "tracing.share", unit: "ratio", better: "lower"},
	{name: "core.share", unit: "ratio", better: "lower"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

func metricByName(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
