package main

// metricDef names one metric. BENCHMARK.json repeats these tables for the
// acceptance driver; the smoke test pins that the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the baseline
}

// endToEndMetrics are host costs of a fixed amount of simulated work, so
// they apply to every workload. setup_s is the cold rep 0; the rest are
// medians of the timed reps. The bounds are three times the run-to-run
// spread measured on the shared two-core sandbox (README, "Noise"), capped
// at a quarter: host time there cannot be made to repeat within a tenth,
// and the counts move by up to 2% from seed to seed.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// simMetrics are simulated statistics. Each belongs to the workloads that
// produce it, so it cannot be an end-to-end metric of the driver's
// contract (every one of those is reported, non-zero, by every workload);
// they are reported with the per-layer metrics, 0 where a workload does
// not produce them, and -compare matches them exactly.
var simMetrics = []metricDef{
	{"sim_p99_s", "s", "lower", 0},
	{"sim_ttft_p99_s", "s", "lower", 0},
	{"sim_goodput_per_s", "1/s", "higher", 0},
	{"sim_energy_j_per_req", "J", "lower", 0},
	{"sim_max_rate_per_s", "1/s", "higher", 0},
	{"sim_costmodel_rel_err", "ratio", "lower", 0},
	{"sim_paper_rel_err", "ratio", "lower", 0},
}

// perLayerMetrics are what the traced pass reports: the ladder, the
// runtime's share, the tracing overhead and the simulated statistics.
var perLayerMetrics = append([]metricDef{
	{"cluster.run_s", "s", "lower", 0},
	{"cluster.loop_residual_ns_per_req", "ns", "lower", 0},
	{"serve.instance_ns_per_req", "ns", "lower", 0},
	{"serve.instance_ns_per_step", "ns", "lower", 0},
	{"serve.run_s", "s", "lower", 0},
	{"serve.loop_residual_ns_per_req", "ns", "lower", 0},
	{"trace.hist_add_ns_per_op", "ns", "lower", 0},
	{"trace.hist_quantile_us", "us", "lower", 0},
	{"trace.hist_share", "ratio", "lower", 0},
	{"workload.arrivals_ns_per_req", "ns", "lower", 0},
	{"workload.gemm_pair_s", "s", "lower", 0},
	{"dnn.forward_cold_ms", "ms", "lower", 0},
	{"dnn.forward_warm_us", "us", "lower", 0},
	{"dnn.distinct_sims", "count", "lower", 0},
	{"gemm.plan_cold_us", "us", "lower", 0},
	{"gemm.plan_warm_us", "us", "lower", 0},
	{"gemm.costmemo_hit_rate", "ratio", "higher", 0},
	{"costmodel.choose_cold_us", "us", "lower", 0},
	{"costmodel.cache_hit_ns", "ns", "lower", 0},
	{"costmodel.cache_hit_rate", "ratio", "higher", 0},
	{"kernels.cost_program_us_per_tile.naive", "us", "lower", 0},
	{"kernels.cost_program_us_per_tile.ltc", "us", "lower", 0},
	{"kernels.cost_program_us_per_tile.op", "us", "lower", 0},
	{"kernels.cost_program_us_per_tile.oplc", "us", "lower", 0},
	{"kernels.cost_program_us_per_tile.oplcrc", "us", "lower", 0},
	{"kernels.cost_program_us_per_tile.localut", "us", "lower", 0},
	{"banksim.rungemm_ms", "ms", "lower", 0},
	{"experiments.fig09_s", "s", "lower", 0},
	{"experiments.fig10_s", "s", "lower", 0},
	{"experiments.fig16_s", "s", "lower", 0},
	{"experiments.fig18_s", "s", "lower", 0},
	{"experiments.fig19_s", "s", "lower", 0},
	{"experiments.fig20_s", "s", "lower", 0},
	{"obs.record_ns_per_span", "ns", "lower", 0},
	{"obs.spans_per_req", "count", "lower", 0},
	{"obs.export_s", "s", "lower", 0},
	{"obs.export_ns_per_byte", "ns", "lower", 0},
	{"obs.trace_bytes_per_req", "B", "lower", 0},
	{"obs.overhead_us_per_req", "us", "lower", 0},
	{"obs.nil_recorder_ns_per_call", "ns", "lower", 0},
	{"audit.overhead_s", "s", "lower", 0},
	{"localut.facade_s", "s", "lower", 0},
	{"localut.report_json_s", "s", "lower", 0},
	{"localut.report_json_bytes", "B", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
	{"ladder_unattributed_frac", "ratio", "lower", 0},
}, simMetrics...)

func metricByName(name string) *metricDef {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for i := range defs {
			if defs[i].name == name {
				return &defs[i]
			}
		}
	}
	return nil
}

func metricUnit(name string) string {
	if d := metricByName(name); d != nil {
		return d.unit
	}
	return ""
}
