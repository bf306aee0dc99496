package main

// metricDef is one metric the benchmark reports; BENCHMARK.json
// mirrors these tables (TestBenchmarkJSONMatchesCode keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the RM sees, reported per
// workload. Bound is the share of the baseline median by which a metric
// may get worse before a change counts as a regression; it must hold the
// metric's spread across ten seeds. The wall-clock bounds are as wide as
// BENCHMARK.json's format allows: the 2-vCPU reference host changes speed
// by up to a third within minutes (README.md).
var endToEnd = []metricDef{
	// Request handed over → decision out, per round, median over rounds.
	{Name: "decision_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "decision_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	// Decided requests over the decision loop's wall time.
	{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// The paper's Fig. 2 and Fig. 3 metrics, fixed by the seed (seedFixed).
	// Across seeds they spread by up to 3.4% and 1.0%.
	{Name: "rejection_pct", Unit: "%", Better: "lower", Bound: 0.12},
	{Name: "energy_per_accepted_j", Unit: "J", Better: "lower", Bound: 0.04},
	// Heap allocations during the decision loop, per decision.
	{Name: "alloc_bytes_per_decision", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "allocs_per_decision", Unit: "count", Better: "lower", Bound: 0.02},
	// Decoding the task set and traces plus building every engine or
	// server, median over repeated set-ups.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// seedFixed are the end-to-end metrics that the decisions alone fix: runs
// of the same code on the same seed read exactly alike. Their bound above
// only has to hold their spread across seeds, which a run record cannot
// show; --compare, which compares runs of one seed, holds them to
// exactBound instead.
var seedFixed = map[string]bool{"rejection_pct": true, "energy_per_accepted_j": true}

// exactBound is the relative change --compare tolerates on a seed-fixed
// metric: float rounding, not a changed decision.
const exactBound = 1e-9

// perLayer are the traced run's metrics. Each comes from the one workload
// that exercises its layer (see README.md for the mapping to the
// end-to-end metric it should move); per-workload self-checks carry the
// workload's name.
var perLayer = []metricDef{
	// serve (serve-http): the handler wrapped on the benchmark's listener.
	{Name: "serve.handler_us.p50", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us.p99", Unit: "us", Better: "lower"},
	{Name: "serve.handler_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.wire_us.p50", Unit: "us", Better: "lower"},
	{Name: "serve.read_us.p50", Unit: "us", Better: "lower"},
	{Name: "serve.read_us.p99", Unit: "us", Better: "lower"},
	{Name: "serve.scrape_ms", Unit: "ms", Better: "lower"},
	// engine (paper-vt-heuristic; problem size from paper-vt-exact).
	{Name: "engine.activate_self_us.p50", Unit: "us", Better: "lower"},
	{Name: "engine.activate_self_us.p99", Unit: "us", Better: "lower"},
	{Name: "engine.advance_us.p50", Unit: "us", Better: "lower"},
	{Name: "engine.advance_us.p99", Unit: "us", Better: "lower"},
	{Name: "engine.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.problem_jobs.mean", Unit: "count", Better: "lower"},
	{Name: "engine.problem_jobs.p99", Unit: "count", Better: "lower"},
	// core (paper-vt-heuristic): the core.Solver timing decorator.
	{Name: "core.solve_us.p50", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.p99", Unit: "us", Better: "lower"},
	{Name: "core.solves_per_decision", Unit: "count", Better: "lower"},
	{Name: "core.feasible_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.solve_share", Unit: "ratio", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	// exact (paper-vt-exact).
	{Name: "exact.solve_us.p50", Unit: "us", Better: "lower"},
	{Name: "exact.solve_us.p99", Unit: "us", Better: "lower"},
	{Name: "exact.nodes_per_solve.mean", Unit: "count", Better: "lower"},
	{Name: "exact.nodes_per_solve.p99", Unit: "count", Better: "lower"},
	{Name: "exact.truncated_pct", Unit: "%", Better: "lower"},
	{Name: "exact.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exact.warm_cuts_per_solve", Unit: "count", Better: "higher"},
	// predict (paper-vt-heuristic): the predict.Predictor decorator.
	{Name: "predict.us.p50", Unit: "us", Better: "lower"},
	{Name: "predict.us.p99", Unit: "us", Better: "lower"},
	{Name: "predict.forecasts_per_decision", Unit: "count", Better: "lower"},
	// shard (scale-64c8g-x2): epochs and the per-shard solve decorators.
	{Name: "shard.epoch_us.p50", Unit: "us", Better: "lower"},
	{Name: "shard.epoch_us.p99", Unit: "us", Better: "lower"},
	{Name: "shard.requests_per_epoch.mean", Unit: "count", Better: "higher"},
	{Name: "shard.solve_us.p50", Unit: "us", Better: "lower"},
	{Name: "shard.solve_us.p99", Unit: "us", Better: "lower"},
	{Name: "shard.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "shard.serial_us.p50", Unit: "us", Better: "lower"},
	// telemetry (serve-http): tracer events per decision.
	{Name: "telemetry.events_per_decision", Unit: "count", Better: "lower"},
	// Trace self-checks, per workload.
	{Name: "trace.coverage_pct.paper-vt-heuristic", Unit: "%", Better: "higher"},
	{Name: "trace.coverage_pct.paper-vt-exact", Unit: "%", Better: "higher"},
	{Name: "trace.coverage_pct.scale-64c8g-x2", Unit: "%", Better: "higher"},
	{Name: "trace.coverage_pct.serve-http", Unit: "%", Better: "higher"},
	{Name: "trace.overhead_pct.paper-vt-heuristic", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct.paper-vt-exact", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct.scale-64c8g-x2", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct.serve-http", Unit: "%", Better: "lower"},
}
