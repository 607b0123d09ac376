package main

// paperRatio is one published ratio the figure drivers quote beside their
// regenerated value.
type paperRatio struct {
	fig, key string  // experiments.Result.Values[key] of figure fig
	paper    float64 // the paper's value
	cite     string  // the notef line the constant was copied from
}

// paperRatios are the seven headline ratios behind sim_paper_rel_err: the
// mean of |simulated / paper - 1| over this table is the simulator's
// distance from the published results.
var paperRatios = []paperRatio{
	{"fig09", "geomean_over_naive", 2.87, "internal/experiments/fig09_12.go:61"},
	{"fig09", "geomean_over_ltc", 1.77, "internal/experiments/fig09_12.go:61"},
	{"fig10", "geomean_over_naive", 1.77, "internal/experiments/fig09_12.go:111"},
	{"fig10", "geomean_over_ltc", 1.82, "internal/experiments/fig09_12.go:111"},
	{"fig19", "prefill_speedup", 1.34, "internal/experiments/fig17_21.go:192"},
	{"fig19", "decode_speedup", 1.27, "internal/experiments/fig17_21.go:192"},
	{"fig20", "geomean", 2.04, "internal/experiments/fig17_21.go:292"},
}
