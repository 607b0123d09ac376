package localut

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/serve"
)

// The serving and fleet types are declared once, in internal/serve and
// internal/cluster; the public names are aliases. Each line stops
// compiling if its public name is re-declared as a mirror struct or enum.
var (
	_ *serve.Stats  = (*LatencyStats)(nil)
	_ *serve.Report = (*ServeReport)(nil)

	_ *cluster.Report         = (*ClusterReport)(nil)
	_ *cluster.InstanceReport = (*ClusterInstanceReport)(nil)
	_ *cluster.ClassReport    = (*ClusterClassReport)(nil)
	_ *cluster.TimelineEvent  = (*ClusterTimelineEvent)(nil)

	_ *cluster.FaultConfig      = (*ClusterFaults)(nil)
	_ *cluster.DomainConfig     = (*ClusterDomains)(nil)
	_ *cluster.StragglerConfig  = (*ClusterStragglers)(nil)
	_ *cluster.HedgeConfig      = (*ClusterHedge)(nil)
	_ *cluster.RetryConfig      = (*ClusterRetry)(nil)
	_ *cluster.ClassConfig      = (*ClusterClass)(nil)
	_ *cluster.AutoscalerConfig = (*ClusterAutoscaler)(nil)

	_ *serve.Policy            = (*SchedulerPolicy)(nil)
	_ *serve.KVPolicy          = (*KVPolicy)(nil)
	_ *cluster.RouterPolicy    = (*RouterPolicy)(nil)
	_ *cluster.AdmissionPolicy = (*AdmissionPolicy)(nil)
)

// TestBadEnumsAreErrors feeds every end-to-end entry point a model,
// design, format or policy outside its declared range. Each must come back
// as an error — Model(9) used to panic all three, and String() with them —
// and the model and format errors must name what was wrong.
func TestBadEnumsAreErrors(t *testing.T) {
	sys := NewSystem()
	serveCfg := func(edit func(*ServeConfig)) func() error {
		return func() error {
			cfg := ServeConfig{Model: OPT125M, Format: W1A3, Design: DesignLoCaLUT, RatePerSec: 10, DurationSeconds: 1}
			edit(&cfg)
			_, err := sys.Serve(cfg)
			return err
		}
	}
	clusterCfg := func(edit func(*ClusterConfig)) func() error {
		return func() error {
			cfg := ClusterConfig{Model: OPT125M, Format: W1A3, Design: DesignLoCaLUT, RatePerSec: 10, DurationSeconds: 1}
			edit(&cfg)
			_, err := sys.ServeCluster(cfg)
			return err
		}
	}
	infer := func(m Model, f Format, d Design) func() error {
		return func() error {
			_, err := sys.Infer(m, f, d, InferOptions{Batch: 1})
			return err
		}
	}
	type badCase struct {
		name string
		run  func() error
		want string // substring of the error ("" = any error)
	}
	var cases []badCase
	for _, v := range []int{-1, 9} {
		v := v
		cases = append(cases,
			badCase{"Serve model", serveCfg(func(c *ServeConfig) { c.Model = Model(v) }), "unknown model"},
			badCase{"ServeCluster model", clusterCfg(func(c *ClusterConfig) { c.Model = Model(v) }), "unknown model"},
			badCase{"Infer model", infer(Model(v), W1A3, DesignLoCaLUT), "unknown model"},

			badCase{"Serve design", serveCfg(func(c *ServeConfig) { c.Design = Design(v) }), ""},
			badCase{"ServeCluster design", clusterCfg(func(c *ClusterConfig) { c.Design = Design(v) }), ""},
			badCase{"ServeCluster designs", clusterCfg(func(c *ClusterConfig) { c.Designs = []Design{Design(v)} }), ""},
			badCase{"Infer design", infer(BERTBase, W1A3, Design(v)), ""},

			badCase{"Serve scheduler", serveCfg(func(c *ServeConfig) { c.Scheduler = SchedulerPolicy(v) }), ""},
			badCase{"ServeCluster scheduler", clusterCfg(func(c *ClusterConfig) { c.Scheduler = SchedulerPolicy(v) }), ""},
			badCase{"ServeCluster router", clusterCfg(func(c *ClusterConfig) { c.Router = RouterPolicy(v) }), ""},
			badCase{"ServeCluster admission", clusterCfg(func(c *ClusterConfig) { c.Admission = AdmissionPolicy(v) }), ""},
			badCase{"ServeCluster kv", clusterCfg(func(c *ClusterConfig) { c.KVPolicy = KVPolicy(v) }), ""},
		)
	}
	cases = append(cases,
		badCase{"Serve zero format", serveCfg(func(c *ServeConfig) { c.Format = Format{} }), "zero Format"},
		badCase{"ServeCluster zero format", clusterCfg(func(c *ClusterConfig) { c.Format = Format{} }), "zero Format"},
		badCase{"Infer zero format", infer(BERTBase, Format{}, DesignLoCaLUT), "zero Format"},
	)
	// Formats that parse but whose codes do not fit tensor storage: every
	// entry point that draws synthetic operands must say so. (Cycles-only
	// entry points draw none and price them fine.) These used to panic.
	for _, name := range []string{"W9A9", "W8A9", "W9A8"} {
		f, err := ParseFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			badCase{"GEMM " + name, func() error {
				_, err := sys.GEMM(f, 64, 64, 8, DesignLoCaLUT)
				return err
			}, "too wide"},
			badCase{"GEMMBatch " + name, func() error {
				_, err := sys.GEMMBatch(f, []GEMMShape{{M: 64, K: 64, N: 8}}, DesignNaive)
				return err
			}, "too wide"},
			badCase{"cycles-only GEMM full output " + name, func() error {
				_, err := NewSystem(WithCyclesOnly()).GEMM(f, 64, 64, 8, DesignLoCaLUT, WithFullOutput())
				return err
			}, "too wide"},
			badCase{"Infer " + name, infer(BERTBase, f, DesignLoCaLUT), "too wide"},
		)
	}
	// An arrival rate that is not a positive finite number: at +Inf every
	// inter-arrival gap is zero and the run never left t = 0 (it hung,
	// growing without bound); NaN passed every `<= 0` check and simulated
	// nothing, successfully.
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		v := v
		cases = append(cases,
			badCase{"Serve rate", serveCfg(func(c *ServeConfig) { c.RatePerSec = v }), "arrival rate"},
			badCase{"ServeCluster rate", clusterCfg(func(c *ClusterConfig) { c.RatePerSec = v }), "arrival rate"},
			badCase{"ServeCluster class rate", clusterCfg(func(c *ClusterConfig) {
				c.Classes = []ClusterClass{{Name: "a", RatePerSec: 10}, {Name: "b", RatePerSec: v}}
			}), "arrival rate"},
		)
	}
	cases = append(cases, badCase{"Serve think time", serveCfg(func(c *ServeConfig) {
		c.RatePerSec, c.Clients, c.ThinkSeconds = 0, 4, math.NaN()
	}), "think time NaN"})
	// A NaN in a chaos plan passed every `<= 0` check: the fault, domain and
	// straggler draws then scheduled events at t = NaN and the run never
	// returned; a NaN hedge delay ran and hedged nothing. +Inf is refused
	// wherever it is a mean, a backoff or a slowdown.
	faults := func(edit func(*ClusterConfig)) func() error {
		return clusterCfg(func(c *ClusterConfig) {
			c.Instances, c.Faults = 2, ClusterFaults{Enabled: true, MTTFSeconds: 0.5}
			edit(c)
		})
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		v := v
		cases = append(cases,
			badCase{"fault MTTF", faults(func(c *ClusterConfig) { c.Faults.MTTFSeconds = v }), "MTTFSeconds"},
			badCase{"fault MTTR", faults(func(c *ClusterConfig) { c.Faults.MTTRSeconds = v }), "MTTRSeconds"},
			badCase{"domain MTBF", clusterCfg(func(c *ClusterConfig) {
				c.Domains = ClusterDomains{Enabled: true, MTBFSeconds: v}
			}), "MTBFSeconds"},
			badCase{"domain MTTR", clusterCfg(func(c *ClusterConfig) {
				c.Domains = ClusterDomains{Enabled: true, MTBFSeconds: 0.5, MTTRSeconds: v}
			}), "MTTRSeconds"},
			badCase{"straggler MTBF", clusterCfg(func(c *ClusterConfig) {
				c.Stragglers = ClusterStragglers{Enabled: true, MTBFSeconds: v}
			}), "MTBFSeconds"},
			badCase{"straggler duration", clusterCfg(func(c *ClusterConfig) {
				c.Stragglers = ClusterStragglers{Enabled: true, MTBFSeconds: 0.5, MeanDurationSeconds: v}
			}), "MeanDurationSeconds"},
			badCase{"straggler slowdown", clusterCfg(func(c *ClusterConfig) {
				c.Stragglers = ClusterStragglers{Enabled: true, MTBFSeconds: 0.5, Slowdown: v}
			}), "Slowdown"},
			badCase{"retry backoff", faults(func(c *ClusterConfig) {
				c.Retry = ClusterRetry{BackoffSeconds: v, BackoffCapSeconds: math.Inf(1)}
			}), "BackoffSeconds"},
		)
	}
	cases = append(cases,
		badCase{"fault degraded fraction", faults(func(c *ClusterConfig) { c.Faults.DegradedFraction = math.NaN() }), "DegradedFraction"},
		badCase{"fault remat bandwidth", faults(func(c *ClusterConfig) { c.Faults.LUTRematGBps = math.NaN() }), "LUTRematGBps"},
		badCase{"retry backoff cap", faults(func(c *ClusterConfig) { c.Retry.BackoffCapSeconds = math.NaN() }), "BackoffCapSeconds"},
		badCase{"hedge delay", clusterCfg(func(c *ClusterConfig) {
			c.Instances, c.Hedge = 2, ClusterHedge{Enabled: true, DelaySeconds: math.NaN()}
		}), "DelaySeconds"},
	)
	// The serve and cluster floats a NaN used to pass: a NaN duration
	// returned an empty report and +Inf never returned (arrivals re-armed
	// forever); a NaN token-bucket rate refused every request; a NaN mean
	// length surfaced only as an impossible forward-pass shape; the rest were
	// accepted and ignored. +Inf stays valid where it means "never".
	class := func(edit func(*ClusterClass)) func() error {
		return clusterCfg(func(c *ClusterConfig) {
			cc := ClusterClass{Name: "a", RatePerSec: 10}
			edit(&cc)
			c.Admission, c.Classes = AdmitTokenBucket, []ClusterClass{cc}
		})
	}
	nan := math.NaN()
	for _, v := range []float64{nan, math.Inf(1)} {
		v := v
		cases = append(cases,
			badCase{"Serve duration", serveCfg(func(c *ServeConfig) { c.DurationSeconds = v }), "DurationSeconds"},
			badCase{"ServeCluster duration", clusterCfg(func(c *ClusterConfig) { c.DurationSeconds = v }), "DurationSeconds"},
			badCase{"Serve output mean", serveCfg(func(c *ServeConfig) { c.OutTokensMean = v }), "OutTokensMean"},
			badCase{"ServeCluster class output mean", class(func(cc *ClusterClass) { cc.OutTokensMean = v }), "OutTokensMean"},
		)
	}
	cases = append(cases,
		badCase{"Serve encoder output mean", serveCfg(func(c *ServeConfig) { c.Model, c.OutTokensMean = BERTBase, nan }), "OutTokensMean"},
		badCase{"Serve mean tokens", serveCfg(func(c *ServeConfig) { c.MeanTokens = nan }), "MeanTokens"},
		badCase{"ServeCluster mean tokens", clusterCfg(func(c *ClusterConfig) { c.MeanTokens = nan }), "MeanTokens"},
		badCase{"ServeCluster deadline", clusterCfg(func(c *ClusterConfig) { c.Deadlines.DefaultSeconds = nan }), "DeadlineSeconds"},
		badCase{"class mean tokens", class(func(cc *ClusterClass) { cc.MeanTokens = nan }), "MeanTokens"},
		badCase{"class admit rate", class(func(cc *ClusterClass) { cc.AdmitRatePerSec = nan }), "AdmitRatePerSec"},
		badCase{"class admit burst", class(func(cc *ClusterClass) { cc.AdmitBurst = nan }), "AdmitBurst"},
		badCase{"class TTFT SLO", class(func(cc *ClusterClass) { cc.TTFTp99SLO = nan }), "TTFTp99SLO"},
		badCase{"class latency SLO", class(func(cc *ClusterClass) { cc.LatencyP99SLO = nan }), "LatencyP99SLO"},
		badCase{"class TPOT SLO", class(func(cc *ClusterClass) { cc.TPOTp99SLO = nan }), "TPOTp99SLO"},
		badCase{"class deadline", class(func(cc *ClusterClass) { cc.DeadlineSeconds = nan }), "DeadlineSeconds"},
		badCase{"class hedge delay", class(func(cc *ClusterClass) { cc.HedgeDelaySeconds = nan }), "HedgeDelaySeconds"},
	)
	// Observability input that means nothing used to be coerced to 1: a
	// negative trace sample rate, and a metrics interval that is negative,
	// NaN or +Inf. 0 still means the default.
	for _, o := range []struct {
		name string
		cfg  ObsConfig
		want string
	}{
		{"trace sample -3", ObsConfig{TraceSampleN: -3}, "TraceSampleN"},
		{"metrics interval -1", ObsConfig{MetricsIntervalSeconds: -1}, "MetricsIntervalSeconds"},
		{"metrics interval NaN", ObsConfig{MetricsIntervalSeconds: nan}, "MetricsIntervalSeconds"},
		{"metrics interval +Inf", ObsConfig{MetricsIntervalSeconds: math.Inf(1)}, "MetricsIntervalSeconds"},
	} {
		o := o
		cases = append(cases,
			badCase{"Serve " + o.name, serveCfg(func(c *ServeConfig) { c.Obs = o.cfg }), o.want},
			badCase{"ServeCluster " + o.name, clusterCfg(func(c *ClusterConfig) { c.Obs = o.cfg }), o.want},
		)
	}
	// A trace entry that is not a time used to surface only after the run,
	// as non-finite latency samples (the finite arrivals' too).
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		v := v
		cases = append(cases, badCase{"Serve arrival trace", serveCfg(func(c *ServeConfig) {
			c.RatePerSec, c.ArrivalTimes = 0, []float64{0.1, 0.2, v, 0.3}
		}), "ArrivalTimes[2]"})
	}
	// A zero or negative dimension: the functional path refuses to draw the
	// operands; the cycles-only path and ChoosePlan, which draw none, panicked
	// with a division by zero in the grid planner (M or N) or failed deep in
	// a kernel (K).
	cyclesOnly := NewSystem(WithCyclesOnly())
	for dim, name := range []string{"M", "K", "N"} {
		for _, v := range []int{0, -1} {
			sh := [3]int{64, 64, 8}
			sh[dim] = v
			label := fmt.Sprintf("%s=%d", name, v)
			for _, d := range Designs {
				d := d
				cases = append(cases,
					badCase{"GEMM " + label + " " + d.String(), func() error {
						_, err := sys.GEMM(W1A3, sh[0], sh[1], sh[2], d)
						return err
					}, "invalid shape"},
					badCase{"cycles-only GEMM " + label + " " + d.String(), func() error {
						_, err := cyclesOnly.GEMM(W1A3, sh[0], sh[1], sh[2], d)
						return err
					}, "invalid GEMM shape"})
			}
			cases = append(cases, badCase{"ChoosePlan " + label, func() error {
				_, err := sys.ChoosePlan(W1A3, sh[0], sh[1], sh[2])
				return err
			}, "invalid GEMM shape"})
		}
	}
	// A forced packing degree outside what lut.NewSpec accepts panicked in
	// the planner; a negative slice batch was ignored off the streaming path.
	for _, c := range badPlans() {
		c := c
		cases = append(cases, badCase{"GEMM " + c.String(), func() error {
			_, err := NewSystem(WithCyclesOnly()).GEMM(W1A3, 64, 64, 8, c.d, c.opts()...)
			return err
		}, c.want()})
	}
	// LoCaLUT with its LUTs in WRAM runs the OP+LC+RC column loop, and its
	// budget error used to name OP+LC+RC.
	cases = append(cases, badCase{"LoCaLUT p=6 in WRAM", func() error {
		_, err := cyclesOnly.GEMM(W1A3, 768, 768, 128, DesignLoCaLUT, WithPackingDegree(6))
		return err
	}, "kernels: LoCaLUT: LUTs W1A3/p6 need"})
	// The autoscaler's floats: +Inf in a duration left a tick or a
	// transition that never landed, and the run hung; NaN passed every check.
	scaler := func(edit func(*ClusterAutoscaler)) func() error {
		return clusterCfg(func(c *ClusterConfig) {
			c.Instances, c.Autoscaler = 1, ClusterAutoscaler{Enabled: true, SLOSeconds: 1}
			edit(&c.Autoscaler)
		})
	}
	for _, v := range []float64{nan, math.Inf(1)} {
		v := v
		cases = append(cases,
			badCase{"autoscaler interval", scaler(func(a *ClusterAutoscaler) { a.IntervalSeconds = v }), "IntervalSeconds"},
			badCase{"autoscaler warmup", scaler(func(a *ClusterAutoscaler) { a.WarmupSeconds = v }), "WarmupSeconds"},
			badCase{"autoscaler drain", scaler(func(a *ClusterAutoscaler) { a.DrainSeconds = v }), "DrainSeconds"},
		)
	}
	cases = append(cases,
		badCase{"autoscaler SLO", scaler(func(a *ClusterAutoscaler) { a.SLOSeconds = nan }), "SLOSeconds"},
		badCase{"autoscaler scale-down factor", scaler(func(a *ClusterAutoscaler) { a.ScaleDownFactor = nan }), "ScaleDownFactor"},
		// Both ends of the open interval (0, 1): at 1 the drain threshold
		// meets the scale-up one and the fleet can flap; below 0 no busy
		// fleet ever drains. 0 itself selects the 0.5 default.
		badCase{"autoscaler scale-down factor 1", scaler(func(a *ClusterAutoscaler) { a.ScaleDownFactor = 1 }), "ScaleDownFactor"},
		badCase{"autoscaler scale-down factor -0.1", scaler(func(a *ClusterAutoscaler) { a.ScaleDownFactor = -0.1 }), "ScaleDownFactor"},
		// Domain outages price re-materialization at the fault plan's
		// bandwidth even when the plan is off; -5 used to report negative
		// unavailability that passed the audit.
		badCase{"domain remat bandwidth", clusterCfg(func(c *ClusterConfig) {
			c.Domains = ClusterDomains{Enabled: true, MTBFSeconds: 0.5}
			c.Faults.LUTRematGBps = -5
		}), "LUTRematGBps"},
	)
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic %v", tc.name, r)
				}
			}()
			// A hang would otherwise only surface as the package timeout.
			guard := time.AfterFunc(10*time.Second, func() { panic("no answer on bad input: " + tc.name) })
			defer guard.Stop()
			err := tc.run()
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		}()
	}
	if got := Model(9).String(); got != "Model(9)" {
		t.Errorf("Model(9).String() = %q", got)
	}
}
