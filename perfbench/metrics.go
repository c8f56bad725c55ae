package main

// kind says where a metric's value comes from, which decides how it is
// aggregated and checked.
type kind int

const (
	// host is a host measurement other than time (memory, allocation,
	// GC cycles): it varies run to run.
	host kind = iota
	// hostTime is a host-time measurement in seconds, milliseconds or
	// nanoseconds. The parent scales it to the reference host speed (see
	// calibrate).
	hostTime
	// modelled is a simulated-time result. It is a pure function of the
	// seed and the simulator, so it must repeat exactly; the run digest
	// covers it.
	modelled
	// work is a work counter that is a pure function of the seed and the
	// simulator; the run digest covers it.
	work
	// cacheWork is a work counter that also depends on what the
	// process-wide kernel cache already holds: it repeats exactly across
	// fresh processes, but not across calls in one process, so it is
	// checked across children but left out of the digest.
	cacheWork
	// share is a CPU-profile self-time share of the traced run.
	share
)

// metricDef names one reported metric. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	kind   kind
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. BENCHMARK.json repeats them; TestBenchmarkJSONMatches
// keeps the two in step.
var endToEnd = []metricDef{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.24, kind: hostTime},
	// sim_tok_per_s is recomputed from the scaled run_s.
	{Name: "sim_tok_per_s", Unit: "tok/s", Better: "higher", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, kind: hostTime},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// layers are the self-time buckets of the CPU-profile fold, named after
// the repository's modules (see layerOf).
var layers = []string{
	"workload", "kernels", "sched", "pim", "perfmodel", "backend", "cluster", "memory",
	"serve.des", "serve.sched", "serve.fold", "other", "runtime.gc",
}

// perLayer are the traced run's metrics. A metric a workload does not
// exercise (handoffs on the batch ladder, say) reads 0.
var perLayer = append(layerShares(),
	metricDef{Name: "perfmodel.lookups", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "perfmodel.misses", Unit: "count", Better: "lower", kind: cacheWork},
	metricDef{Name: "perfmodel.hit_pct", Unit: "%", Better: "higher", kind: cacheWork},
	metricDef{Name: "cluster.iterations", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "cluster.sim_tokens", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "memory.preemptions", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "memory.reserved_per_live", Unit: "ratio", Better: "lower", kind: work},
	metricDef{Name: "serve.requests", Unit: "count", Better: "higher", kind: work},
	metricDef{Name: "serve.handoffs", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "serve.migrations", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "serve.steals", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "serve.held", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "serve.scale_actions", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "serve.crashes", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "serve.retries", Unit: "count", Better: "lower", kind: work},
	metricDef{Name: "model.tok_s", Unit: "tok/s", Better: "higher", kind: modelled},
	metricDef{Name: "model.speedup_x", Unit: "x", Better: "higher", kind: modelled},
	metricDef{Name: "model.goodput_tok_s", Unit: "tok/s", Better: "higher", kind: modelled},
	metricDef{Name: "model.ttft_p99_s", Unit: "s", Better: "lower", kind: modelled},
	metricDef{Name: "model.tbt_p99_s", Unit: "s", Better: "lower", kind: modelled},
	metricDef{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	metricDef{Name: "workload.gen_s", Unit: "s", Better: "lower", kind: hostTime},
	metricDef{Name: "core.new_system_s", Unit: "s", Better: "lower", kind: hostTime},
	metricDef{Name: "cluster.warm_s", Unit: "s", Better: "lower", kind: hostTime},
	metricDef{Name: "perfmodel.cold_s", Unit: "s", Better: "lower", kind: hostTime},
	metricDef{Name: "perfmodel.ms_per_miss", Unit: "ms", Better: "lower", kind: hostTime},
	metricDef{Name: "cluster.ns_per_sim_token", Unit: "ns", Better: "lower", kind: hostTime},
	metricDef{Name: "serve.ns_per_request", Unit: "ns", Better: "lower", kind: hostTime},
	metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
)

func layerShares() []metricDef {
	defs := make([]metricDef, len(layers))
	for i, l := range layers {
		defs[i] = metricDef{Name: l + ".self_pct", Unit: "%", Better: "lower", kind: share}
	}
	return defs
}

// metricByName finds a metric definition among both lists.
func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
