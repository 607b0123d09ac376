// Command localut-cluster runs the cluster-scale serving simulator: a
// routed fleet of LoCaLUT appliances — each a full request-level serving
// instance — behind pluggable admission control and a reactive
// autoscaler, driven by one shared discrete-event clock. Reports are
// byte-identical for a given seed at any -j, including mid-run
// scale-up/scale-down.
//
// Usage:
//
//	localut-cluster -model bert-base -instances 8 -rate 2000 -duration 60s
//	localut-cluster -model opt-125m -out-tokens 8 -router weighted-kv -instances 4
//	localut-cluster -classes "interactive:300:200,batch:100" -admission token-bucket
//	localut-cluster -autoscale -slo 0.5 -instances 1 -max-instances 8 -rate 400
//	localut-cluster -designs "OP+LC+RC,LoCaLUT" -router shape-affinity
//	localut-cluster -sweep 500,1000,2000 -fleets 2,4,8
//
// Output is a summary table plus per-instance and per-class sections;
// -json and -csv switch formats, -o writes to a file. Every mode but the
// fixed -chaos scenarios runs the one ClusterConfig the flags describe, a
// sweep overriding only what it sweeps; every flag is honoured in every
// mode or refused by name.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/cli"
	"github.com/ais-snu/localut/internal/trace"
)

// options are the parsed flags: the appliance and request-shape flags
// shared with localut-serve, the output selection, and the fleet's own.
type options struct {
	cli.Workload
	out cli.Output

	designs   string
	instances int
	router    string
	admission string
	rate      float64
	classes   string

	// The chaos and autoscaler plans take their flags field by field; the
	// three durations and the hedge delay fill their plans in fleetConfig.
	autoscaler localut.ClusterAutoscaler
	faults     localut.ClusterFaults
	domains    localut.ClusterDomains
	stragglers localut.ClusterStragglers
	retry      localut.ClusterRetry

	autoscaleInterval, warmup, drainDelay time.Duration
	hedgeDelay, deadline                  float64

	maxQueue int
	kv       string
	audit    bool

	// Modes other than one fleet run.
	chaos                                int
	sweep, fleets, mttfSweep, hedgeSweep string

	timeline bool
}

func (o *options) register(fs *flag.FlagSet) {
	o.Workload.Register(fs)
	o.out.Register(fs)
	fs.StringVar(&o.designs, "designs", "", "comma-separated designs cycled over instance IDs (heterogeneous fleet)")
	fs.IntVar(&o.instances, "instances", 2, "initial fleet size")
	fs.StringVar(&o.router, "router", "round-robin", "router: round-robin, least-outstanding, weighted-kv or shape-affinity")
	fs.StringVar(&o.admission, "admission", "admit-all", "admission: admit-all or token-bucket")
	fs.Float64Var(&o.rate, "rate", 100, "open-loop Poisson arrival rate (requests/sec, single default class)")
	fs.StringVar(&o.classes, "classes", "", `SLO classes as "name:rate[:admitRate]" pairs, comma-separated (overrides -rate)`)
	fs.BoolVar(&o.autoscaler.Enabled, "autoscale", false, "enable the reactive autoscaler")
	fs.Float64Var(&o.autoscaler.SLOSeconds, "slo", 0, "autoscaler response-start p99 target in seconds (required with -autoscale)")
	fs.IntVar(&o.autoscaler.MinInstances, "min-instances", 0, "autoscaler floor (0 = 1)")
	fs.IntVar(&o.autoscaler.MaxInstances, "max-instances", 0, "autoscaler ceiling (0 = 4x initial)")
	fs.DurationVar(&o.autoscaleInterval, "interval", 0, "autoscaler control period (0 = 5s)")
	fs.DurationVar(&o.warmup, "warmup", 0, "launched-instance warm-up delay (0 = 2s)")
	fs.DurationVar(&o.drainDelay, "drain", 0, "retirement delay after an instance empties (0 = 1s)")
	fs.Float64Var(&o.faults.MTTFSeconds, "mttf", 0, "per-instance mean time to failure in seconds (0 = no fault injection)")
	fs.Float64Var(&o.faults.MTTRSeconds, "mttr", 0, "mean repair delay in seconds (0 = 5)")
	fs.Float64Var(&o.faults.DegradedFraction, "degraded", 0, "fraction of faults that degrade one replica instead of crashing")
	fs.Float64Var(&o.faults.LUTRematGBps, "remat-gbps", 0, "LUT re-materialization write bandwidth in GB/s (0 = 16)")
	fs.IntVar(&o.domains.Count, "domains", 0, "correlated failure domains; instances map to domains by ID modulo this count (0 = off)")
	fs.Float64Var(&o.domains.MTBFSeconds, "domain-mtbf", 0, "per-domain mean time between correlated outages in seconds (required with -domains)")
	fs.Float64Var(&o.domains.MTTRSeconds, "domain-mttr", 0, "mean domain repair delay in seconds (0 = 10)")
	fs.Float64Var(&o.stragglers.MTBFSeconds, "straggler-mtbf", 0, "per-member mean time between gray-failure straggler windows in seconds (0 = off)")
	fs.Float64Var(&o.stragglers.MeanDurationSeconds, "straggler-duration", 0, "mean straggler window length in seconds (0 = 5)")
	fs.Float64Var(&o.stragglers.Slowdown, "straggler-slowdown", 0, "pass-cost multiplier inside a straggler window (0 = 4)")
	fs.Float64Var(&o.hedgeDelay, "hedge-delay", 0, "duplicate a request still waiting for its first token after this many seconds (0 = hedging off)")
	fs.BoolVar(&o.audit, "audit", false, "run the conservation auditor on the final report and fail on any violation")
	fs.IntVar(&o.chaos, "chaos", 0, "chaos seed sweep: run N seeds across four failure scenarios with the auditor on, failing on any violation")
	fs.StringVar(&o.hedgeSweep, "hedge-sweep", "", "comma-separated hedge delays (seconds; 0 = no-hedge baseline) for a tail-latency sweep under straggler injection")
	fs.Float64Var(&o.deadline, "deadline", 0, "default per-request completion deadline in seconds (0 = none)")
	fs.IntVar(&o.retry.MaxAttempts, "retries", 0, "max service attempts per request (0 = 3)")
	fs.Float64Var(&o.retry.BackoffSeconds, "retry-backoff", 0, "first retry backoff in seconds (0 = 0.05)")
	fs.IntVar(&o.maxQueue, "max-queue", 0, "per-instance admission queue bound (0 = unbounded)")
	fs.StringVar(&o.kv, "kv", "gauge", "KV budget policy: gauge, stall or shed")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated arrival rates for a fleet-scaling sweep")
	fs.StringVar(&o.fleets, "fleets", "", "comma-separated fleet sizes for -sweep (default: -instances)")
	fs.StringVar(&o.mttfSweep, "mttf-sweep", "", "comma-separated MTTF values (seconds; 0 = fault-free baseline) for a reliability sweep")
	fs.BoolVar(&o.timeline, "timeline", false, "print the fleet-state timeline: scale, fault, domain-outage and straggler transitions (table output only; per-request hedge and KV-shed detail is in -trace-out)")
}

func main() { cli.Main("localut-cluster", run) }

func run() error {
	var o options
	o.register(flag.CommandLine)
	return o.out.Run(o.execute)
}

// chaosFlags are the flags -chaos honours: it runs fixed scenarios.
var chaosFlags = []string{"chaos", "j", "o", "json", "csv", "audit", "cpuprofile", "memprofile"}

// execute runs the mode the flags in fs select, writing its output to w.
// Every mode but -chaos runs the one ClusterConfig the flags describe on
// one System, a sweep overriding only the fields it sweeps; a flag the
// mode would drop is refused by name.
func (o *options) execute(fs *flag.FlagSet, w io.Writer) error {
	if o.chaos > 0 {
		if err := cli.Refuse(fs, "-chaos", func(name string) bool { return !slices.Contains(chaosFlags, name) }); err != nil {
			return err
		}
		return runChaos(w, o)
	}
	sweeps := []string{"json", "timeline", "trace-out", "metrics-out"} // no sweep writes these
	mode, refused, run := "a single run", []string{"fleets"}, o.runFleet
	switch {
	case o.hedgeSweep != "":
		mode, refused, run = "-hedge-sweep", append(sweeps, "sweep", "mttf-sweep", "fleets", "hedge-delay"), o.runHedgeSweep
	case o.mttfSweep != "":
		mode, refused, run = "-mttf-sweep", append(sweeps, "sweep", "fleets", "mttf"), o.runMTTFSweep
	case o.sweep != "":
		mode, refused, run = "-sweep", append(sweeps, "rate", "classes"), o.runSweep
		if o.fleets != "" {
			refused = append(refused, "instances")
		}
	}
	if err := cli.Refuse(fs, mode, cli.Among(refused...)); err != nil {
		return err
	}
	cfg, err := o.fleetConfig()
	if err != nil {
		return err
	}
	return run(w, o.System(), cfg)
}

// fleetConfig is the facade config the flags describe. A chaos layer is
// enabled by its trigger flag: -mttf, -domains, -straggler-mtbf,
// -hedge-delay. A trigger enables its layer when positive, so a negative or
// NaN value would run a healthy fleet and exit 0; it is refused by name.
func (o *options) fleetConfig() (localut.ClusterConfig, error) {
	for _, trigger := range []struct {
		flag  string
		value float64
	}{
		{"-hedge-delay", o.hedgeDelay},
		{"-mttf", o.faults.MTTFSeconds},
		{"-straggler-mtbf", o.stragglers.MTBFSeconds},
		{"-domains", float64(o.domains.Count)},
	} {
		if !(trigger.value >= 0) {
			return localut.ClusterConfig{}, fmt.Errorf("%s %g must be zero (off) or positive", trigger.flag, trigger.value)
		}
	}
	cfg := localut.ClusterConfig{
		Instances:       o.instances,
		Replicas:        o.Replicas,
		RatePerSec:      o.rate,
		DurationSeconds: o.Duration.Seconds(),
		MaxBatch:        o.MaxBatch,
		MinTokens:       o.MinTokens,
		MaxTokens:       o.MaxTokens,
		MeanTokens:      o.MeanTokens,
		TokenQuantum:    o.Quantum,
		OutTokens:       o.OutTokens,
		OutTokensMean:   o.OutTokensMean,
		OutTokensMax:    o.OutTokensMax,
		MaxQueue:        o.maxQueue,
		Autoscaler:      o.autoscaler,
		Faults:          o.faults,
		Domains:         o.domains,
		Stragglers:      o.stragglers,
		Hedge:           localut.ClusterHedge{Enabled: o.hedgeDelay > 0, DelaySeconds: o.hedgeDelay},
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: o.deadline},
		Retry:           o.retry,
		Audit:           o.audit,
	}
	cfg.Autoscaler.IntervalSeconds = o.autoscaleInterval.Seconds()
	cfg.Autoscaler.WarmupSeconds = o.warmup.Seconds()
	cfg.Autoscaler.DrainSeconds = o.drainDelay.Seconds()
	cfg.Faults.Enabled = o.faults.MTTFSeconds > 0
	cfg.Domains.Enabled = o.domains.Count > 0
	cfg.Stragglers.Enabled = o.stragglers.MTBFSeconds > 0

	n, err := o.Names(o.designs)
	if err != nil {
		return cfg, err
	}
	cfg.Model, cfg.Format, cfg.Design, cfg.Designs, cfg.Scheduler = n.Model, n.Format, n.Design, n.Designs, n.Scheduler
	if cfg.Router, err = localut.ParseRouterPolicy(o.router); err != nil {
		return cfg, err
	}
	if cfg.Admission, err = localut.ParseAdmissionPolicy(o.admission); err != nil {
		return cfg, err
	}
	if cfg.KVPolicy, err = localut.ParseKVPolicy(o.kv); err != nil {
		return cfg, err
	}
	cfg.Classes, err = parseClasses(o.classes)
	return cfg, err
}

// runFleet is the default mode: one cluster simulation, reported as a
// summary table plus per-instance and per-class sections.
func (o *options) runFleet(w io.Writer, sys *localut.System, cfg localut.ClusterConfig) error {
	obsCfg, closeObs, err := o.out.Obs()
	if err != nil {
		return err
	}
	cfg.Obs = obsCfg

	start := time.Now()
	rep, err := sys.ServeCluster(cfg)
	if err := errors.Join(err, closeObs()); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	if o.out.JSON {
		if err := cli.WriteJSON(w, rep); err != nil {
			return err
		}
	} else {
		for _, t := range []*trace.Table{summaryTable(rep), instanceTable(rep), classTable(rep)} {
			if err := o.out.Table(w, t); err != nil {
				return err
			}
			if !o.out.CSV {
				fmt.Fprintln(w)
			}
		}
		if !o.out.CSV && o.timeline && len(rep.Timeline) > 0 {
			if err := timelineTable(rep).Render(w); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "simulated %d requests over %d instances (peak %d, %d distinct forward sims) in %.2fs host wall-clock\n",
		rep.Admitted, len(rep.Instances), rep.InstancesPeak, rep.DistinctForwardSims, wall)
	return nil
}

// summaryTable flattens the cluster-wide metrics.
func summaryTable(r *localut.ClusterReport) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Cluster serving %s %s (%d instances, %s router, %s admission)",
			r.Model, r.Format, r.InstancesInitial, r.Router, r.Admission),
		"metric", "value")
	t.Add("offered", r.Offered)
	t.Add("admitted", r.Admitted)
	t.Add("rejected", r.Rejected)
	t.Add("completed", r.Completed)
	t.Add("instances initial/peak/final", fmt.Sprintf("%d / %d / %d",
		r.InstancesInitial, r.InstancesPeak, r.InstancesFinal))
	t.Add("offered (req/s)", r.OfferedPerSec)
	t.Add("throughput (req/s)", r.ThroughputPerSec)
	t.Add("goodput (req/s)", r.GoodputPerSec)
	t.Add("good / late / shed", fmt.Sprintf("%d / %d / %d", r.Good, r.DeadlineMisses, r.Shed))
	if r.Shed > 0 {
		t.Add("shed expired/kv/queue/retries", fmt.Sprintf("%d / %d / %d / %d",
			r.ShedExpired, r.ShedKV, r.ShedQueueFull, r.ShedRetries))
	}
	t.Add("retries", r.Retries)
	t.Add("reprefill tokens", r.ReprefillTokens)
	if r.Crashes > 0 || r.DegradedEvents > 0 {
		t.Add("crashes / degraded", fmt.Sprintf("%d / %d", r.Crashes, r.DegradedEvents))
		t.Add("unavailable (s)", r.UnavailableSeconds)
		t.Add("time-to-recover p50/p99 (s)", fmt.Sprintf("%.4g / %.4g",
			r.TimeToRecover.P50, r.TimeToRecover.P99))
		t.Add("lut remat per recovery (s)", r.LUTRematSeconds)
	}
	if r.DomainOutages > 0 {
		t.Add("domain outages / overlap extensions", fmt.Sprintf("%d / %d",
			r.DomainOutages, r.DomainOverlapExtensions))
	}
	if r.StragglerWindows > 0 {
		t.Add("straggler windows", r.StragglerWindows)
	}
	if r.HedgesIssued > 0 {
		t.Add("hedges issued/wins/cancels/drops", fmt.Sprintf("%d / %d / %d / %d",
			r.HedgesIssued, r.HedgeWins, r.HedgeCancels, r.HedgeDrops))
		if r.BusySeconds > 0 {
			t.Add("hedge waste (s)", fmt.Sprintf("%.4g (%.4g of busy)",
				r.HedgeWastedSeconds, r.HedgeWastedSeconds/r.BusySeconds))
		}
	}
	t.Add("tokens/s", r.TokensPerSec)
	t.Add("arrival window (s)", r.DurationSeconds)
	t.Add("makespan (s)", r.MakespanSeconds)
	t.Add("latency p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g",
		r.Latency.P50, r.Latency.P95, r.Latency.P99))
	if r.TTFT.P99 > 0 {
		t.Add("ttft p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g",
			r.TTFT.P50, r.TTFT.P95, r.TTFT.P99))
		t.Add("tpot p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g",
			r.TPOT.P50, r.TPOT.P95, r.TPOT.P99))
	}
	t.Add("tokens in/padded/out", fmt.Sprintf("%d / %d / %d", r.TokensIn, r.TokensPadded, r.TokensOut))
	if r.KVMeanBytes > 0 {
		t.Add("kv mean per replica (bytes)", fmt.Sprintf("%.4g (%.4g of capacity)",
			r.KVMeanBytes, r.KVMeanUtilization))
	}
	t.Add("energy/request (J)", r.EnergyPerRequestJ)
	t.Add("distinct forward sims", r.DistinctForwardSims)
	return t
}

// instanceTable lists the per-instance breakdown.
func instanceTable(r *localut.ClusterReport) *trace.Table {
	t := trace.NewTable("Per-instance breakdown",
		"instance", "design", "requests", "completed", "shed", "crashes",
		"unavail (s)", "batches", "batch size",
		"util", "pim share", "tokens out", "energy (J)", "up (s)", "down (s)")
	for _, ir := range r.Instances {
		t.Add(ir.ID, ir.Design, ir.Requests, ir.Completed, ir.Shed, ir.Crashes,
			ir.UnavailableSeconds, ir.Batches,
			ir.MeanBatchSize, ir.Utilization, ir.PIMShare, ir.TokensOut,
			ir.EnergyJ, ir.UpSeconds, ir.DownSeconds)
	}
	return t
}

// classTable lists the per-SLO-class breakdown.
func classTable(r *localut.ClusterReport) *trace.Table {
	t := trace.NewTable("Per-class breakdown",
		"class", "rate/s", "offered", "admitted", "rejected", "completed",
		"good", "shed", "retries", "miss rate",
		"p99 (s)", "ttft p99 (s)", "tpot p99 (s)", "slo met")
	for _, cr := range r.Classes {
		t.Add(cr.Name, cr.RatePerSec, cr.Offered, cr.Admitted, cr.Rejected,
			cr.Completed, cr.Good, cr.Shed, cr.Retries, cr.DeadlineMissRate,
			cr.Latency.P99, cr.TTFT.P99, cr.TPOT.P99, cr.SLOMet)
	}
	return t
}

// timelineTable lists the fleet-state timeline: autoscaler actions, fault
// injections/repairs, domain outages and straggler windows through one
// rendering path, in event order.
func timelineTable(r *localut.ClusterReport) *trace.Table {
	t := trace.NewTable("Fleet timeline",
		"t (s)", "kind", "action", "instance", "replica", "domain", "active",
		"p99 (s)", "samples", "recover (s)")
	for _, ev := range r.Timeline {
		t.Add(ev.Seconds, ev.Kind, ev.Action, ev.Instance, ev.Replica, ev.Domain,
			ev.Active, ev.P99, ev.Samples, ev.RecoverSeconds)
	}
	return t
}

// parseClasses parses "name:rate[:admitRate]" pairs.
func parseClasses(s string) ([]localut.ClusterClass, error) {
	if s == "" {
		return nil, nil
	}
	var out []localut.ClusterClass
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("bad -classes entry %q (want name:rate[:admitRate])", part)
		}
		c := localut.ClusterClass{Name: fields[0]}
		r, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate in -classes entry %q", part)
		}
		c.RatePerSec = r
		if len(fields) == 3 {
			a, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || a <= 0 {
				return nil, fmt.Errorf("bad admit rate in -classes entry %q", part)
			}
			c.AdmitRatePerSec = a
		}
		out = append(out, c)
	}
	return out, nil
}

// runSweep is the fleet-scaling sweep: cfg at each -sweep rate, as the
// single default class, for each -fleets size (default: -instances).
func (o *options) runSweep(w io.Writer, sys *localut.System, cfg localut.ClusterConfig) error {
	rates, err := cli.ParseNums(o.sweep, false)
	if err != nil {
		return err
	}
	fleets := []float64{float64(o.instances)}
	if o.fleets != "" {
		if fleets, err = cli.ParseNums(o.fleets, false); err != nil {
			return err
		}
	}
	t := trace.NewTable(
		fmt.Sprintf("Fleet scaling: %s %s on %s, %s router, %s window",
			cfg.Model, cfg.Format.Name(), cfg.Design, cfg.Router, o.Duration),
		"fleet", "rate/s", "offered/s", "throughput/s", "tokens/s",
		"rejected", "p50 (s)", "p99 (s)", "ttft p99 (s)",
		"energy/req (J)", "peak", "requests")
	start := time.Now()
	for _, f := range fleets {
		for _, r := range rates {
			cfg.Instances, cfg.RatePerSec = int(f), r
			rep, err := sys.ServeCluster(cfg)
			if err != nil {
				return err
			}
			t.Add(cfg.Instances, r, rep.OfferedPerSec, rep.ThroughputPerSec, rep.TokensPerSec,
				rep.Rejected, rep.Latency.P50, rep.Latency.P99, rep.TTFT.P99,
				rep.EnergyPerRequestJ, rep.InstancesPeak, rep.Admitted)
		}
	}
	return o.out.Sweep(w, t, "sweep", start)
}

// ratio is a/b, or 0 without a positive b (a sweep without its baseline).
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// runMTTFSweep is the reliability sweep: goodput and recovery tax per
// (design, MTTF), MTTF 0 being each design's fault-free baseline. -designs
// (default: -design) is the swept list, so every point is homogeneous.
func (o *options) runMTTFSweep(w io.Writer, sys *localut.System, cfg localut.ClusterConfig) error {
	mttfs, err := cli.ParseNums(o.mttfSweep, true)
	if err != nil {
		return err
	}
	designs := cfg.Designs
	if len(designs) == 0 {
		designs = []localut.Design{cfg.Design}
	}
	cfg.Designs = nil
	t := trace.NewTable(
		fmt.Sprintf("Reliability: %s %s, %d instances at %g req/s, %s window",
			cfg.Model, cfg.Format.Name(), cfg.Instances, cfg.RatePerSec, o.Duration),
		"design", "mttf (s)", "throughput/s", "goodput/s", "goodput ratio",
		"miss rate", "crashes", "retries", "reprefill", "shed",
		"unavail (s)", "recover p99 (s)", "p99 (s)")
	start := time.Now()
	for _, d := range designs {
		baseline := 0.0
		for _, mttf := range mttfs {
			cfg.Design = d
			cfg.Faults.Enabled, cfg.Faults.MTTFSeconds = mttf > 0, mttf
			rep, err := sys.ServeCluster(cfg)
			if err != nil {
				return err
			}
			if mttf == 0 {
				baseline = rep.GoodputPerSec
			}
			t.Add(d.String(), mttf, rep.ThroughputPerSec, rep.GoodputPerSec, ratio(rep.GoodputPerSec, baseline),
				ratio(float64(rep.Admitted-rep.Good), float64(rep.Admitted)),
				rep.Crashes, rep.Retries, rep.ReprefillTokens, rep.Shed,
				rep.UnavailableSeconds, rep.TimeToRecover.P99, rep.Latency.P99)
		}
	}
	return o.out.Sweep(w, t, "reliability", start)
}

// chaosScenario is one named failure mix for the -chaos seed sweep.
type chaosScenario struct {
	name   string
	mutate func(*localut.ClusterConfig)
}

// chaosBase is the fixed fleet behind the -chaos sweep: a decode fleet
// small enough that N seeds x 4 scenarios stay cheap, busy enough that
// every failure mechanism fires.
func chaosBase(seed int64) localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		Replicas:        2,
		OutTokens:       4,
		RatePerSec:      30,
		DurationSeconds: 30,
		Seed:            seed,
		Audit:           true,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 8},
	}
}

// chaosScenarios are the four failure mixes every seed runs through:
// everything at once, correlated domain outages alone, gray-failure
// stragglers with hedging but no crashes, and everything at once on a
// saturated fleet, where deadlines shed hedge copies and parked losers'
// twins win.
func chaosScenarios() []chaosScenario {
	faults := localut.ClusterFaults{Enabled: true, MTTFSeconds: 120, MTTRSeconds: 2}
	doms := localut.ClusterDomains{Enabled: true, Count: 4, MTBFSeconds: 60, MTTRSeconds: 2}
	strag := localut.ClusterStragglers{Enabled: true, MTBFSeconds: 60, MeanDurationSeconds: 5, Slowdown: 4}
	hedge := localut.ClusterHedge{Enabled: true, DelaySeconds: 0.5}
	return []chaosScenario{
		{"full", func(c *localut.ClusterConfig) {
			c.Faults, c.Domains, c.Stragglers, c.Hedge = faults, doms, strag, hedge
		}},
		{"domains-only", func(c *localut.ClusterConfig) { c.Domains = doms }},
		{"gray-hedged", func(c *localut.ClusterConfig) { c.Stragglers, c.Hedge = strag, hedge }},
		{"saturated", func(c *localut.ClusterConfig) {
			c.Faults, c.Domains, c.Stragglers, c.Hedge = faults, doms, strag, hedge
			c.RatePerSec, c.DurationSeconds = 120, 100
		}},
	}
}

// chaosRow is one (scenario, seed) outcome of the sweep, also the JSON
// record shape.
type chaosRow struct {
	Scenario           string  `json:"scenario"`
	Seed               int64   `json:"seed"`
	Admitted           int     `json:"admitted"`
	Completed          int     `json:"completed"`
	Good               int     `json:"good"`
	Shed               int     `json:"shed"`
	Crashes            int     `json:"crashes"`
	DomainOutages      int     `json:"domain_outages"`
	StragglerWindows   int     `json:"straggler_windows"`
	HedgesIssued       int     `json:"hedges_issued"`
	HedgeWins          int     `json:"hedge_wins"`
	HedgeWastedSeconds float64 `json:"hedge_waste_s"`
	UnavailableSeconds float64 `json:"unavailable_s"`
}

// runChaos is the chaos seed sweep: -chaos seeds x 4 failure scenarios,
// every run with the conservation auditor on. Any auditor violation
// surfaces as a run error and a nonzero exit; a clean sweep prints one row
// per run, byte-identical for a given seed count at any -j.
func runChaos(w io.Writer, o *options) error {
	scenarios := chaosScenarios()
	rows := make([]chaosRow, 0, o.chaos*len(scenarios))
	start := time.Now()
	for _, sc := range scenarios {
		for seed := int64(1); seed <= int64(o.chaos); seed++ {
			cfg := chaosBase(seed)
			sc.mutate(&cfg)
			sys := localut.NewSystem(localut.WithSeed(seed), localut.WithParallelism(o.Parallelism))
			rep, err := sys.ServeCluster(cfg)
			if err != nil {
				return fmt.Errorf("scenario %s seed %d: %w", sc.name, seed, err)
			}
			rows = append(rows, chaosRow{
				Scenario:           sc.name,
				Seed:               seed,
				Admitted:           rep.Admitted,
				Completed:          rep.Completed,
				Good:               rep.Good,
				Shed:               rep.Shed,
				Crashes:            rep.Crashes,
				DomainOutages:      rep.DomainOutages,
				StragglerWindows:   rep.StragglerWindows,
				HedgesIssued:       rep.HedgesIssued,
				HedgeWins:          rep.HedgeWins,
				HedgeWastedSeconds: rep.HedgeWastedSeconds,
				UnavailableSeconds: rep.UnavailableSeconds,
			})
		}
	}
	if o.out.JSON {
		if err := cli.WriteJSON(w, rows); err != nil {
			return err
		}
	} else {
		t := trace.NewTable(fmt.Sprintf("Chaos sweep: %d seeds x %d scenarios, auditor on", o.chaos, len(scenarios)),
			"scenario", "seed", "admitted", "completed", "good", "shed", "crashes",
			"domain outages", "straggler windows", "hedges", "wins", "waste (s)", "unavail (s)")
		for _, r := range rows {
			t.Add(r.Scenario, r.Seed, r.Admitted, r.Completed, r.Good, r.Shed, r.Crashes,
				r.DomainOutages, r.StragglerWindows, r.HedgesIssued, r.HedgeWins,
				r.HedgeWastedSeconds, r.UnavailableSeconds)
		}
		if err := o.out.Table(w, t); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%d chaos runs audited clean in %.2fs host wall-clock\n",
		len(rows), time.Since(start).Seconds())
	return nil
}

// runHedgeSweep is the hedging sweep: TTFT tail and hedge waste per
// trigger delay under straggler injection, delay 0 being the no-hedge
// baseline. Unset straggler flags default to the canonical gray-failure
// scenario (MTBF 80s, 5s windows, 4x slowdown), whose stream is decoupled
// from hedging: every point sees the same slowdown schedule.
func (o *options) runHedgeSweep(w io.Writer, sys *localut.System, cfg localut.ClusterConfig) error {
	delays, err := cli.ParseNums(o.hedgeSweep, true)
	if err != nil {
		return err
	}
	strag := &cfg.Stragglers
	strag.Enabled = true
	strag.MTBFSeconds = cmp.Or(strag.MTBFSeconds, 80)
	strag.MeanDurationSeconds = cmp.Or(strag.MeanDurationSeconds, 5)
	strag.Slowdown = cmp.Or(strag.Slowdown, 4)
	t := trace.NewTable(
		fmt.Sprintf("Hedging: %s %s, %d instances at %g req/s, stragglers %gx every %gs",
			cfg.Model, cfg.Format.Name(), cfg.Instances, cfg.RatePerSec, strag.Slowdown, strag.MTBFSeconds),
		"hedge delay (s)", "ttft p99 (s)", "ttft ratio", "p99 (s)",
		"goodput/s", "straggler windows", "hedges", "wins",
		"waste (s)", "waste frac")
	start := time.Now()
	baseline := 0.0
	for _, d := range delays {
		cfg.Hedge = localut.ClusterHedge{Enabled: d > 0, DelaySeconds: d}
		rep, err := sys.ServeCluster(cfg)
		if err != nil {
			return err
		}
		if d == 0 {
			baseline = rep.TTFT.P99
		}
		t.Add(d, rep.TTFT.P99, ratio(rep.TTFT.P99, baseline), rep.Latency.P99, rep.GoodputPerSec, rep.StragglerWindows,
			rep.HedgesIssued, rep.HedgeWins, rep.HedgeWastedSeconds, ratio(rep.HedgeWastedSeconds, rep.BusySeconds))
	}
	return o.out.Sweep(w, t, "hedging", start)
}
