package experiments_test

// The serving sweeps are not drivers of this package: localut-serve and
// localut-cluster tabulate them from the public facade. These tests pin,
// through that facade, the behaviour each sweep exists to show and the
// report values each sweep table prints, independent of the commands'
// flag wiring (which the commands' own tests cover).

import (
	"reflect"
	"testing"

	"github.com/ais-snu/localut"
)

func servingBase() localut.ServeConfig {
	return localut.ServeConfig{
		Model:           localut.BERTBase,
		Format:          localut.W1A3,
		Design:          localut.DesignLoCaLUT,
		DurationSeconds: 2,
		Seed:            1,
	}
}

// serveCurve runs cfg at each rate on one system, as localut-serve -sweep does.
func serveCurve(t *testing.T, cfg localut.ServeConfig, rates ...float64) []*localut.ServeReport {
	t.Helper()
	sys := localut.NewSystem()
	var reps []*localut.ServeReport
	for _, r := range rates {
		cfg.RatePerSec = r
		rep, err := sys.Serve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestServingCurveShapeAndSaturation(t *testing.T) {
	reps := serveCurve(t, servingBase(), 20, 2000)
	light, heavy := reps[0], reps[1]
	// The saturation signature: pushing the offered rate 100x must not
	// scale throughput 100x, and p99 latency must blow up.
	if heavy.ThroughputPerSec > light.ThroughputPerSec*50 {
		t.Errorf("no saturation: throughput %g -> %g", light.ThroughputPerSec, heavy.ThroughputPerSec)
	}
	if heavy.Latency.P99 <= light.Latency.P99 {
		t.Errorf("p99 did not degrade under overload: %g -> %g", light.Latency.P99, heavy.Latency.P99)
	}
	if heavy.RankUtilization <= light.RankUtilization {
		t.Errorf("utilization did not rise under overload: %g -> %g", light.RankUtilization, heavy.RankUtilization)
	}
}

// TestServingTable pins the report values a saturation-table row prints.
func TestServingTable(t *testing.T) {
	p := serveCurve(t, servingBase(), 50)[0]
	if p.Design != "LoCaLUT" {
		t.Errorf("design = %q, want LoCaLUT", p.Design)
	}
	if p.Requests <= 0 || p.ThroughputPerSec <= 0 || p.Latency.P50 <= 0 || p.Latency.P99 < p.Latency.P50 ||
		p.MeanBatchSize <= 0 || p.RankUtilization <= 0 {
		t.Errorf("saturation-table values missing: %+v", p)
	}
}

func clusterBase() localut.ClusterConfig {
	return localut.ClusterConfig{
		Model:           localut.BERTBase,
		Format:          localut.W1A3,
		Design:          localut.DesignLoCaLUT,
		DurationSeconds: 2,
		Seed:            1,
	}
}

// clusterCurve runs cfg per (fleet, rate) on sys, as localut-cluster -sweep does.
func clusterCurve(t *testing.T, sys *localut.System, cfg localut.ClusterConfig, fleets []int, rates ...float64) []*localut.ClusterReport {
	t.Helper()
	var reps []*localut.ClusterReport
	for _, f := range fleets {
		for _, r := range rates {
			cfg.Instances, cfg.RatePerSec = f, r
			rep, err := sys.ServeCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
	}
	return reps
}

// TestClusterCurveFleetScaling pins the sweep's purpose: at an offered
// load that saturates one appliance, adding appliances must cut p99
// latency.
func TestClusterCurveFleetScaling(t *testing.T) {
	reps := clusterCurve(t, localut.NewSystem(), clusterBase(), []int{1, 4}, 600)
	one, four := reps[0], reps[1]
	if four.Latency.P99 >= one.Latency.P99 {
		t.Errorf("4 instances did not beat 1 at p99: %g vs %g", four.Latency.P99, one.Latency.P99)
	}
	if four.ThroughputPerSec <= one.ThroughputPerSec {
		t.Errorf("4 instances did not raise drain throughput: %g vs %g",
			four.ThroughputPerSec, one.ThroughputPerSec)
	}
}

// TestClusterCurveDeterministic: the same curve on a fresh serial system
// and a fresh parallel one is identical.
func TestClusterCurveDeterministic(t *testing.T) {
	a := clusterCurve(t, localut.NewSystem(localut.WithParallelism(1)), clusterBase(), []int{2}, 100, 400)
	b := clusterCurve(t, localut.NewSystem(localut.WithParallelism(4)), clusterBase(), []int{2}, 100, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config diverged")
	}
}

// TestClusterTable pins the report values a fleet-scaling-table row prints
// (a prefill-only fleet has no TTFT).
func TestClusterTable(t *testing.T) {
	p := clusterCurve(t, localut.NewSystem(), clusterBase(), []int{2}, 100)[0]
	if p.Admitted <= 0 || p.OfferedPerSec <= 0 || p.ThroughputPerSec <= 0 || p.TokensPerSec <= 0 ||
		p.Latency.P99 < p.Latency.P50 || p.Latency.P50 <= 0 || p.EnergyPerRequestJ <= 0 || p.InstancesPeak != 2 {
		t.Errorf("fleet-table values missing: %+v", p)
	}
}

// hedgeBase is the canonical gray-failure scenario: an 8-member fleet
// where members intermittently run 4x slow without crashing.
func hedgeBase() localut.ClusterConfig {
	return localut.ClusterConfig{
		Model:           localut.OPT125M,
		Format:          localut.W1A3,
		Design:          localut.DesignLoCaLUT,
		Replicas:        2,
		OutTokens:       4,
		Instances:       8,
		RatePerSec:      30,
		DurationSeconds: 60,
		Seed:            1,
		Audit:           true,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 8},
		Stragglers: localut.ClusterStragglers{
			Enabled:             true,
			MTBFSeconds:         80,
			MeanDurationSeconds: 5,
			Slowdown:            4,
		},
	}
}

// hedgeCurve runs cfg at each hedge delay on one system, delay 0 being the
// no-hedge baseline, as localut-cluster -hedge-sweep does.
func hedgeCurve(t *testing.T, delays ...float64) []*localut.ClusterReport {
	t.Helper()
	sys, cfg := localut.NewSystem(), hedgeBase()
	var reps []*localut.ClusterReport
	for _, d := range delays {
		cfg.Hedge = localut.ClusterHedge{Enabled: d > 0, DelaySeconds: d}
		rep, err := sys.ServeCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// TestHedgeCurveTailTradeoff pins the sweep's purpose: against the
// delay-0 baseline, a well-chosen hedge delay must cut TTFT p99 while
// wasting under 10% of fleet busy time, and the shared straggler
// schedule must be identical at every point.
func TestHedgeCurveTailTradeoff(t *testing.T) {
	reps := hedgeCurve(t, 0, 0.2)
	base, hedged := reps[0], reps[1]
	if base.StragglerWindows == 0 || hedged.StragglerWindows != base.StragglerWindows {
		t.Errorf("straggler schedule not shared: %d vs %d windows",
			base.StragglerWindows, hedged.StragglerWindows)
	}
	if base.HedgesIssued != 0 || hedged.HedgesIssued == 0 || hedged.HedgeWins == 0 {
		t.Errorf("hedge counters wrong: base %d issued, hedged %d issued / %d wins",
			base.HedgesIssued, hedged.HedgesIssued, hedged.HedgeWins)
	}
	if hedged.TTFT.P99 >= base.TTFT.P99 {
		t.Errorf("hedging did not improve TTFT p99: %g vs %g", hedged.TTFT.P99, base.TTFT.P99)
	}
	if waste := hedged.HedgeWastedSeconds / hedged.BusySeconds; waste <= 0 || waste >= 0.10 {
		t.Errorf("waste fraction %g outside (0, 0.10)", waste)
	}
}

func TestHedgeCurveDeterministic(t *testing.T) {
	if a, b := hedgeCurve(t, 0, 0.3), hedgeCurve(t, 0, 0.3); !reflect.DeepEqual(a, b) {
		t.Fatal("same config diverged")
	}
}

// TestHedgeTable pins the report values a hedging-table row prints: the
// no-hedge baseline has a TTFT tail, goodput and busy time to normalize
// waste by, and no hedge activity.
func TestHedgeTable(t *testing.T) {
	p := hedgeCurve(t, 0)[0]
	if p.TTFT.P99 <= 0 || p.Latency.P99 < p.TTFT.P99 || p.GoodputPerSec <= 0 || p.BusySeconds <= 0 {
		t.Errorf("hedging-table values missing: %+v", p)
	}
	if p.HedgesIssued != 0 || p.HedgeWins != 0 || p.HedgeWastedSeconds != 0 {
		t.Errorf("no-hedge baseline hedged: %d issued, %d wins, %gs wasted",
			p.HedgesIssued, p.HedgeWins, p.HedgeWastedSeconds)
	}
}
