package main

import (
	"fmt"
	"math"
	"strconv"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/internal/experiments"
	"github.com/ais-snu/localut/internal/kernels"
)

// outcome is what one rep of a workload produced. The host cost of the
// rep is measured around run by the caller; everything here is simulated
// or counted, so it repeats exactly for a given seed.
type outcome struct {
	ops    int      // simulation calls attempted (ServeCluster, Serve probe, RunFigure)
	failed []string // one entry per failed call or broken sanity check
	units  int      // allocs_per_op denominator: admitted requests, or figures

	// reports are the public results of the calls in call order; their
	// JSON encoding is the rep's determinism digest.
	reports []interface{}
	// sim holds the simulated statistics the workload pins.
	sim map[string]float64
	// detail carries display-only rows (per-design rates, paper ratios).
	detail map[string]float64

	// fleet is the cluster report of a fleet_* rep, kept for the ladder.
	fleet *localut.ClusterReport
	// probes lists every Serve call of a serve_sla_search rep.
	probes []probe
	// figures lists the ids run by a figures_cyclesonly rep, in order.
	figures []string
}

// release drops the reports the ladder would read; a fleet timeline alone
// runs to a hundred megabytes, and a rep must not carry the last one's.
func (o *outcome) release() { o.fleet, o.probes = nil, nil }

func (o *outcome) failf(format string, args ...interface{}) {
	o.failed = append(o.failed, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs. run builds a cold System or Suite
// from the seed (the seed reaches the simulator only through the
// generated config) and makes the workload's simulation calls; span
// brackets each call (noSpan outside the traced pass).
type workload struct {
	name string
	why  string
	reps int // timed reps in the full pass
	run  func(seed int64, quick bool, span spanFunc) *outcome
	// ladder is the workload's part of the traced pass: it times the
	// layers under run from outside and fills in the per-layer metrics.
	ladder func(l *ladder)
}

// spanFunc opens a span and returns the function that closes it.
type spanFunc func(name string) func()

func noSpan(string) func() { return func() {} }

// countingWriter discards what it is given and counts it: the trace and
// metrics exports are serialized in full without touching the disk.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

var workloads = []workload{
	{
		name: "fleet_steady",
		why:  "capacity planning at 0.8 utilisation: cluster event loop, router at width 64, serve.Instance, LogHistogram and allocation do the work; planners do none",
		reps: 7,
		run: func(seed int64, quick bool, span spanFunc) *outcome {
			o := runFleet(fleetSteadyConfig(seed, quick), span)
			if r := o.fleet; r != nil && (r.Shed != 0 || r.Completed != r.Admitted) {
				o.failf("fleet_steady: shed %d, completed %d of %d admitted", r.Shed, r.Completed, r.Admitted)
			}
			return o
		},
		ladder: func(l *ladder) { fleetLadder(l, fleetSteadyConfig(l.seed, l.quick), false) },
	},
	{
		name: "fleet_decode_chaos",
		why:  "same cluster and serve layers on the decode, cancel, hedge, retry and crash paths, with KV accounting; a free-list that mishandles a hedge loser fails the audit here",
		reps: 7,
		run: func(seed int64, quick bool, span spanFunc) *outcome {
			o := runFleet(fleetChaosConfig(seed, quick), span)
			if r := o.fleet; r != nil {
				if r.Crashes == 0 || r.HedgesIssued == 0 || r.Retries == 0 {
					o.failf("fleet_decode_chaos: crashes %d, hedges %d, retries %d must all be positive",
						r.Crashes, r.HedgesIssued, r.Retries)
				}
				o.sim["sim_ttft_p99_s"] = r.TTFT.P99
			}
			return o
		},
		ladder: func(l *ladder) { fleetLadder(l, fleetChaosConfig(l.seed, l.quick), false) },
	},
	{
		name: "fleet_faults_obs",
		why:  "full trace and metrics recording into a counting writer: obs record and export are most of the wall and nearly all of the memory; every other workload runs with a nil recorder",
		reps: 7,
		run: func(seed int64, quick bool, span spanFunc) *outcome {
			cfg := fleetFaultsConfig(seed, quick)
			var tw, mw countingWriter
			cfg.Obs = localut.ObsConfig{TraceWriter: &tw, MetricsWriter: &mw, MetricsIntervalSeconds: 1}
			o := runFleet(cfg, span)
			if o.fleet != nil && (tw.n == 0 || mw.n == 0) {
				o.failf("fleet_faults_obs: trace export %d B, metrics export %d B", tw.n, mw.n)
			}
			return o
		},
		ladder: func(l *ladder) { fleetLadder(l, fleetFaultsConfig(l.seed, l.quick), true) },
	},
	{
		name:   "serve_sla_search",
		why:    "the single-appliance serve.Run loop as users drive it: about 55 short runs from idle to 40x overload, a fresh oracle per probe over all six kernel cost programs",
		reps:   5,
		run:    runSLASearch,
		ladder: slaLadder,
	},
	{
		name:   "figures_cyclesonly",
		why:    "the paper-reproduction path: operand generation, kernel cost programs, gemm planner and memo, costmodel, dnn, banksim; no event loop and no histogram",
		reps:   5,
		run:    runFigures,
		ladder: figuresLadder,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// dur picks the simulated duration for the scale.
func dur(full, quick float64, q bool) float64 {
	if q {
		return quick
	}
	return full
}

func fleetSteadyConfig(seed int64, quick bool) localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       64,
		Router:          localut.RouteLeastOutstanding,
		RatePerSec:      1600,
		DurationSeconds: dur(600, 5, quick),
		Seed:            seed,
		Audit:           true,
	}
}

func fleetChaosConfig(seed int64, quick bool) localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		Replicas:        2,
		OutTokens:       4,
		RatePerSec:      120,
		DurationSeconds: dur(3600, 60, quick),
		Seed:            seed,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 8},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 120, MTTRSeconds: 2},
		Domains:         localut.ClusterDomains{Enabled: true, Count: 4, MTBFSeconds: 60, MTTRSeconds: 2},
		Stragglers:      localut.ClusterStragglers{Enabled: true, MTBFSeconds: 60, MeanDurationSeconds: 5, Slowdown: 4},
		Hedge:           localut.ClusterHedge{Enabled: true, DelaySeconds: 0.5},
		Audit:           true,
	}
}

func fleetFaultsConfig(seed int64, quick bool) localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		RatePerSec:      200,
		DurationSeconds: dur(1200, 20, quick),
		Seed:            seed,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 5},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 120, MTTRSeconds: 2},
		Audit:           true,
	}
}

// runFleet makes one ServeCluster call on a cold System. The conservation
// auditor is on in every fleet config, so a books-don't-balance run comes
// back as an error and counts as a failed op.
func runFleet(cfg localut.ClusterConfig, span spanFunc) *outcome {
	o := &outcome{ops: 1, sim: map[string]float64{}, detail: map[string]float64{}}
	sys := localut.NewSystem(localut.WithSeed(cfg.Seed), localut.WithParallelism(1))
	end := span("localut.ServeCluster")
	rep, err := sys.ServeCluster(cfg)
	end()
	if err != nil {
		o.failf("ServeCluster: %v", err)
		return o
	}
	o.fleet = rep
	o.units = rep.Admitted
	o.detail["units"] = float64(rep.Admitted)
	o.reports = append(o.reports, rep)
	o.sim["sim_p99_s"] = rep.Latency.P99
	o.sim["sim_goodput_per_s"] = rep.GoodputPerSec
	o.sim["sim_energy_j_per_req"] = rep.EnergyPerRequestJ
	return o
}

// The serve_sla_search objective, as in examples/servingsla.
const (
	sloTTFTP99Seconds = 0.5
	sloTPOTP99Seconds = 0.080
	slaMaxRate        = 512
)

// probe is one Serve call of the search.
type probe struct {
	design localut.Design
	rate   int
	report *localut.ServeReport
}

func slaProbeConfig(d localut.Design, rate int, seed int64, quick bool) localut.ServeConfig {
	return localut.ServeConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: d,
		RatePerSec:      float64(rate),
		DurationSeconds: dur(300, 4, quick),
		Seed:            seed,
		OutTokensMean:   16,
		OutTokensMax:    64,
	}
}

// runSLASearch binary-searches, for each of the six designs, the largest
// integer rate in [0, slaMaxRate] whose run meets both SLOs.
func runSLASearch(seed int64, quick bool, span spanFunc) *outcome {
	o := &outcome{sim: map[string]float64{}, detail: map[string]float64{}}
	sys := localut.NewSystem(localut.WithSeed(seed), localut.WithParallelism(1))
	best := map[localut.Design]int{}
	for _, d := range localut.Designs {
		lo, hi := 0, slaMaxRate // lo: known feasible, hi: known infeasible
		for lo+1 < hi {
			mid := (lo + hi) / 2
			o.ops++
			end := span("localut.Serve")
			rep, err := sys.Serve(slaProbeConfig(d, mid, seed, quick))
			end()
			if err != nil {
				o.failf("Serve %s at %d/s: %v", d, mid, err)
				hi = mid
				continue
			}
			o.units += rep.Requests
			o.reports = append(o.reports, rep)
			o.probes = append(o.probes, probe{d, mid, rep})
			if rep.Completed > 0 && rep.TTFT.P99 <= sloTTFTP99Seconds && rep.TPOT.P99 <= sloTPOTP99Seconds {
				lo = mid
			} else {
				hi = mid
			}
		}
		best[d] = lo
		o.detail["max_rate_per_s."+d.String()] = float64(lo)
	}
	for _, d := range localut.Designs {
		if d != localut.DesignLoCaLUT && best[d] >= best[localut.DesignLoCaLUT] {
			o.failf("serve_sla_search: %s sustains %d/s, LoCaLUT only %d/s", d, best[d], best[localut.DesignLoCaLUT])
		}
	}
	o.sim["sim_max_rate_per_s"] = float64(best[localut.DesignLoCaLUT])
	o.detail["units"] = float64(o.units)
	return o
}

// figureIDs is the cycles-only figure list; the quick scale keeps three
// that finish in milliseconds and carry simulated statistics.
func figureIDs(quick bool) []string {
	if quick {
		return []string{"fig10", "fig18", "fig19"}
	}
	return []string{"fig09", "fig10", "fig16", "fig18", "fig19", "fig20"}
}

// runFigures regenerates the figure list on a cold Suite.
func runFigures(seed int64, quick bool, span spanFunc) *outcome {
	o := &outcome{sim: map[string]float64{}, detail: map[string]float64{}}
	s := experiments.New()
	s.Seed = seed
	s.Mode = kernels.CyclesOnly
	s.Parallelism = 1
	values := map[string]map[string]float64{}
	for _, id := range figureIDs(quick) {
		o.ops++
		end := span("experiments." + id)
		res, err := s.RunFigure(id)
		end()
		if err != nil {
			o.failf("RunFigure %s: %v", id, err)
			continue
		}
		o.units++
		o.figures = append(o.figures, id)
		o.reports = append(o.reports, res)
		values[id] = res.Values
		if id == "fig09" {
			// Rows end with LoCaLUT's speedup over Naive PIM.
			for _, row := range res.Table.Rows {
				cell := row[len(row)-1]
				if v, err := strconv.ParseFloat(cell, 64); err != nil || !(v > 1) {
					o.failf("fig09: LoCaLUT speedup over Naive %q in row %v is not above 1", cell, row[:2])
				}
			}
		}
	}
	if v, ok := values["fig18"]["mean_rel_error"]; ok {
		o.sim["sim_costmodel_rel_err"] = v
	}
	var sum float64
	var n int
	for _, pc := range paperRatios {
		v, ok := values[pc.fig][pc.key]
		if !ok {
			continue // figure not in this scale's list
		}
		o.detail["ratio."+pc.fig+"."+pc.key] = v
		sum += math.Abs(v/pc.paper - 1)
		n++
	}
	if n > 0 {
		o.sim["sim_paper_rel_err"] = sum / float64(n)
	}
	o.detail["units"] = float64(o.units)
	return o
}
