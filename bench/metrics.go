package main

// metricSpec mirrors one metric entry of BENCHMARK.json; a unit test
// keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees, per workload,
// measured with tracing off. Bound is the share of the parent's median
// by which the metric may worsen before a change is a regression. They
// are sized from the spread of ten runs with ten seeds on the sizing
// box, whose speed drifts by 10-20% for minutes at a time (README).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"lat_geomean_ms", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.08},
	{"heap_after_setup_mb", "MB", "lower", 0.05},
}

// perLayerMetrics come from the traced run; layer = package name. A
// workload that never enters a layer reports 0 for it.
var perLayerMetrics = []metricSpec{
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.canon_us", Unit: "us", Better: "lower"},
	{Name: "reformulate.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "reformulate.memo_us", Unit: "us", Better: "lower"},
	{Name: "reformulate.disjuncts", Unit: "count", Better: "lower"},
	{Name: "cover.root_us", Unit: "us", Better: "lower"},
	{Name: "cover.reform_jucq_ms", Unit: "ms", Better: "lower"},
	{Name: "cover.fragments", Unit: "count", Better: "lower"},
	{Name: "search.gdl_ext_ms", Unit: "ms", Better: "lower"},
	{Name: "search.gdl_rdbms_ms", Unit: "ms", Better: "lower"},
	{Name: "search.edl_ms", Unit: "ms", Better: "lower"},
	{Name: "search.covers_explored", Unit: "count", Better: "lower"},
	{Name: "search.estimate_calls", Unit: "count", Better: "lower"},
	{Name: "search.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cost.estimate_us", Unit: "us", Better: "lower"},
	{Name: "cost.estimate_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.estimate_us", Unit: "us", Better: "lower"},
	{Name: "engine.estimate_share", Unit: "ratio", Better: "lower"},
	{Name: "sqlgen.gen_us", Unit: "us", Better: "lower"},
	{Name: "sqlgen.sql_bytes", Unit: "B", Better: "lower"},
	{Name: "plan.lower_us", Unit: "us", Better: "lower"},
	{Name: "plan.rewrite_us", Unit: "us", Better: "lower"},
	{Name: "plan.validate_us", Unit: "us", Better: "lower"},
	{Name: "plan.nodes", Unit: "count", Better: "lower"},
	{Name: "engine.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.run_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.run_wP_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.rows_examined", Unit: "count", Better: "lower"},
	{Name: "engine.rows_out", Unit: "count", Better: "higher"},
	{Name: "engine.rows_per_result", Unit: "ratio", Better: "lower"},
	{Name: "engine.alloc_kb_per_run", Unit: "kB", Better: "lower"},
	{Name: "sqlexec.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlexec.run_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.build_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.run_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.rows_moved", Unit: "count", Better: "lower"},
	{Name: "shard.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.speedup_vs_native", Unit: "ratio", Better: "higher"},
	{Name: "core.answer_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.answer_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "core.front_share", Unit: "ratio", Better: "lower"},
	{Name: "core.front_share_search", Unit: "ratio", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.invalidate_us", Unit: "us", Better: "lower"},
	{Name: "core.stage_sum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_kb", Unit: "kB", Better: "lower"},
	{Name: "db.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "db.write_us", Unit: "us", Better: "lower"},
	{Name: "db.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}
