package bench

// Metric names one reported number. BENCHMARK.json lists the same
// metrics; TestBenchmarkJSON keeps the two in step.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a vavgrun user sees, measured on untraced
// reps. Failed reps are reported as the result's failed/attempted counts
// rather than as a metric, because a metric must never read 0.
var EndToEnd = []Metric{
	// Seconds to obtain the input graph(s): MakeFamily, LoadGraph, or the
	// sweep's gen callbacks.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Seconds in Algorithm.Run or Sweep (minus its gen callbacks): relabel
	// view, engine, validation and report.
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	// The child's VmHWM, mapped pages included.
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// PerLayer are the traced run's metrics, named after the modules whose
// public functions the spans wrap. README.md maps each to the end-to-end
// metric and workload it should move.
var PerLayer = []Metric{
	{Name: "graph.input_s", Unit: "s", Better: "lower"},
	{Name: "graph.relabel_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_mib", Unit: "MiB", Better: "lower"},
	{Name: "graph.mapped_mib", Unit: "MiB", Better: "lower"},
	{Name: "graph.cache_hits", Unit: "count", Better: "higher"},
	{Name: "graph.cache_misses", Unit: "count", Better: "lower"},
	{Name: "engine.run_s", Unit: "s", Better: "lower"},
	{Name: "engine.vertex_rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.ns_per_message", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "engine.allocs_per_vertex_round", Unit: "count", Better: "lower"},
	{Name: "engine.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "engine.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "engine.rounds", Unit: "count", Better: "lower"},
	{Name: "engine.vertex_rounds", Unit: "count", Better: "lower"},
	{Name: "engine.messages", Unit: "count", Better: "lower"},
	{Name: "check.validate_s", Unit: "s", Better: "lower"},
	{Name: "check.failures", Unit: "count", Better: "lower"},
	{Name: "metrics.report_s", Unit: "s", Better: "lower"},
	{Name: "parallel.points", Unit: "count", Better: "higher"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
}
