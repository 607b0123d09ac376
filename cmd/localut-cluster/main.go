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
// -json and -csv switch formats, -o writes to a file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/cli"
	"github.com/ais-snu/localut/cmd/internal/obsfiles"
	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/experiments"
	"github.com/ais-snu/localut/internal/prof"
	"github.com/ais-snu/localut/internal/serve"
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

	timeline               bool
	traceOut, metricsOut   string
	traceSample            int
	metricsInterval        time.Duration
	cpuProfile, memProfile string
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
	fs.IntVar(&o.chaos, "chaos", 0, "chaos seed sweep: run N seeds across three failure scenarios with the auditor on, failing on any violation")
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
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	fs.IntVar(&o.traceSample, "trace-sample", 1, "keep every N-th request's lifecycle span in the trace")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write interval time-series metrics to this file (.json = JSON, else CSV)")
	fs.DurationVar(&o.metricsInterval, "metrics-interval", time.Second, "time-series sampling interval")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a post-GC pprof heap profile to this file at exit")
}

func main() { cli.Main("localut-cluster", run) }

func run() error {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	w, closeOut, err := o.out.Open()
	if err != nil {
		return err
	}
	switch {
	case o.chaos > 0:
		err = runChaos(w, &o)
	case o.hedgeSweep != "":
		err = runHedgeSweep(w, &o)
	case o.mttfSweep != "":
		err = runMTTFSweep(w, &o)
	case o.sweep != "":
		err = runSweep(w, &o)
	default:
		err = runFleet(w, &o)
	}
	return errors.Join(err, closeOut())
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

	var err error
	if cfg.Model, err = localut.ParseModel(o.Model); err != nil {
		return cfg, err
	}
	if cfg.Format, err = localut.ParseFormat(o.Format); err != nil {
		return cfg, err
	}
	if cfg.Design, err = localut.ParseDesign(o.Design); err != nil {
		return cfg, err
	}
	if cfg.Scheduler, err = localut.ParseSchedulerPolicy(o.Scheduler); err != nil {
		return cfg, err
	}
	if cfg.Router, err = localut.ParseRouterPolicy(o.router); err != nil {
		return cfg, err
	}
	if cfg.Admission, err = localut.ParseAdmissionPolicy(o.admission); err != nil {
		return cfg, err
	}
	if cfg.KVPolicy, err = localut.ParseKVPolicy(o.kv); err != nil {
		return cfg, err
	}
	if o.designs != "" {
		for _, name := range strings.Split(o.designs, ",") {
			d, err := localut.ParseDesign(strings.TrimSpace(name))
			if err != nil {
				return cfg, err
			}
			cfg.Designs = append(cfg.Designs, d)
		}
	}
	cfg.Classes, err = parseClasses(o.classes)
	return cfg, err
}

// runFleet is the default mode: one cluster simulation, reported as a
// summary table plus per-instance and per-class sections.
func runFleet(w io.Writer, o *options) error {
	cfg, err := o.fleetConfig()
	if err != nil {
		return err
	}
	obsCfg, closeObs, err := obsfiles.Open(o.traceOut, o.traceSample, o.metricsOut, o.metricsInterval.Seconds())
	if err != nil {
		return err
	}
	cfg.Obs = obsCfg

	start := time.Now()
	rep, err := o.System().ServeCluster(cfg)
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

// sweepBase is the cluster.Config the three sweep drivers vary: the fleet
// the flags describe, chaos layers off. Each driver adds the layer it
// sweeps.
func (o *options) sweepBase() (cluster.Config, error) {
	inst, err := o.Instance()
	if err != nil {
		return cluster.Config{}, err
	}
	inst.MaxQueue = o.maxQueue
	if inst.KVPolicy, err = serve.ParseKVPolicy(o.kv); err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{
		Base:            inst,
		Instances:       o.instances,
		RatePerSec:      o.rate,
		DurationSeconds: o.Duration.Seconds(),
		Seed:            o.Seed,
		DeadlineSeconds: o.deadline,
		Retry:           o.retry,
		Audit:           o.audit,
	}
	if cfg.Router, err = cluster.ParseRouterPolicy(o.router); err != nil {
		return cfg, err
	}
	cfg.Admission, err = cluster.ParseAdmissionPolicy(o.admission)
	return cfg, err
}

// sweepTable writes one sweep's table and its wall-clock line.
func sweepTable(w io.Writer, o *options, t *trace.Table, what string, points int, start time.Time) error {
	if err := o.out.Table(w, t); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d %s points in %.2fs host wall-clock\n", points, what, time.Since(start).Seconds())
	return nil
}

// runSweep drives the experiments fleet-scaling driver over -sweep rates
// and -fleets sizes.
func runSweep(w io.Writer, o *options) error {
	rates, err := cli.ParseNums(o.sweep, false)
	if err != nil {
		return err
	}
	fleets := []int{o.instances}
	if o.fleets != "" {
		fs, err := cli.ParseNums(o.fleets, false)
		if err != nil {
			return err
		}
		fleets = fleets[:0]
		for _, f := range fs {
			fleets = append(fleets, int(f))
		}
	}
	base, err := o.sweepBase()
	if err != nil {
		return err
	}
	start := time.Now()
	points, err := experiments.ClusterCurve(base, fleets, rates)
	if err != nil {
		return err
	}
	return sweepTable(w, o, experiments.ClusterTable(
		fmt.Sprintf("Fleet scaling: %s %s on %s, %s router, %s window",
			base.Base.Model.Name, base.Base.Fmt.Name(), base.Base.Variant, base.Router, o.Duration), points),
		"sweep", len(points), start)
}

// runMTTFSweep drives the experiments reliability driver: goodput and
// recovery tax per (design, MTTF), with MTTF 0 as the fault-free
// baseline each design is normalized against.
func runMTTFSweep(w io.Writer, o *options) error {
	mttfs, err := cli.ParseNums(o.mttfSweep, true)
	if err != nil {
		return err
	}
	designs := o.designs
	if designs == "" {
		designs = o.Design
	}
	variants, err := cli.Variants(designs)
	if err != nil {
		return err
	}
	base, err := o.sweepBase()
	if err != nil {
		return err
	}
	base.Faults = o.faults // the driver sets Enabled and MTTFSeconds per point

	start := time.Now()
	points, err := experiments.ReliabilityCurve(base, variants, mttfs)
	if err != nil {
		return err
	}
	return sweepTable(w, o, experiments.ReliabilityTable(
		fmt.Sprintf("Reliability: %s %s, %d instances at %g req/s, %s window",
			base.Base.Model.Name, base.Base.Fmt.Name(), o.instances, o.rate, o.Duration), points),
		"reliability", len(points), start)
}

// chaosScenario is one named failure mix for the -chaos seed sweep.
type chaosScenario struct {
	name   string
	mutate func(*localut.ClusterConfig)
}

// chaosBase is the fixed fleet behind the -chaos sweep: a decode fleet
// small enough that N seeds x 3 scenarios stay cheap, busy enough that
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

// chaosScenarios are the three failure mixes every seed runs through:
// everything at once, correlated domain outages alone, and gray-failure
// stragglers with hedging but no crashes.
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

// runChaos is the chaos seed sweep: -chaos seeds x 3 failure scenarios,
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

// runHedgeSweep drives the experiments hedging driver: TTFT tail and
// hedge waste per trigger delay under straggler injection, with delay 0
// as the no-hedge baseline. Straggler flags default to the canonical
// gray-failure scenario (MTBF 80s, 5s windows, 4x slowdown) when unset.
func runHedgeSweep(w io.Writer, o *options) error {
	delays, err := cli.ParseNums(o.hedgeSweep, true)
	if err != nil {
		return err
	}
	base, err := o.sweepBase()
	if err != nil {
		return err
	}
	strag := o.stragglers
	strag.Enabled = true
	if strag.MTBFSeconds == 0 {
		strag.MTBFSeconds = 80
	}
	if strag.MeanDurationSeconds == 0 {
		strag.MeanDurationSeconds = 5
	}
	if strag.Slowdown == 0 {
		strag.Slowdown = 4
	}
	base.Stragglers = strag

	start := time.Now()
	points, err := experiments.HedgeCurve(base, delays)
	if err != nil {
		return err
	}
	return sweepTable(w, o, experiments.HedgeTable(
		fmt.Sprintf("Hedging: %s %s, %d instances at %g req/s, stragglers %gx every %gs",
			base.Base.Model.Name, base.Base.Fmt.Name(), o.instances, o.rate, strag.Slowdown, strag.MTBFSeconds), points),
		"hedging", len(points), start)
}
