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
//	localut-cluster -bench-json BENCH_cluster.json
//
// Output is a summary table plus per-instance and per-class sections;
// -json and -csv switch formats, -o writes to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/obsfiles"
	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/experiments"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/prof"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
)

func main() {
	model := flag.String("model", "bert-base", "model: bert-base, opt-125m or vit-base")
	fmtName := flag.String("fmt", "W1A3", "quantization format (WxAy)")
	design := flag.String("design", "LoCaLUT", "kernel design point")
	designsFlag := flag.String("designs", "", "comma-separated designs cycled over instance IDs (heterogeneous fleet)")
	instances := flag.Int("instances", 2, "initial fleet size")
	replicas := flag.Int("replicas", 4, "serving groups per appliance")
	ranks := flag.Int("ranks", 0, "override each appliance's rank count (0 = testbed 32)")
	routerName := flag.String("router", "round-robin", "router: round-robin, least-outstanding, weighted-kv or shape-affinity")
	admissionName := flag.String("admission", "admit-all", "admission: admit-all or token-bucket")
	rate := flag.Float64("rate", 100, "open-loop Poisson arrival rate (requests/sec, single default class)")
	classesFlag := flag.String("classes", "", `SLO classes as "name:rate[:admitRate]" pairs, comma-separated (overrides -rate)`)
	duration := flag.Duration("duration", 60*time.Second, "arrival window")
	seed := flag.Int64("seed", 1, "workload seed")
	maxBatch := flag.Int("max-batch", 8, "requests per batch")
	sched := flag.String("scheduler", "packed", "batch scheduler: fcfs or packed")
	quantum := flag.Int("quantum", 64, "token padding quantum (shape bucket)")
	minTok := flag.Int("min-tokens", 16, "minimum request length")
	maxTok := flag.Int("max-tokens", 256, "maximum request length")
	meanTok := flag.Float64("mean-tokens", 0, "mean request length (0 = model sequence length)")
	outTok := flag.Int("out-tokens", 0, "fixed decode tokens per request (decoder models)")
	outTokMean := flag.Float64("out-tokens-mean", 0, "mean sampled decode tokens per request (overrides -out-tokens)")
	outTokMax := flag.Int("out-tokens-max", 0, "cap on sampled decode tokens (0 = 4x the mean)")
	autoscale := flag.Bool("autoscale", false, "enable the reactive autoscaler")
	slo := flag.Float64("slo", 0, "autoscaler response-start p99 target in seconds (required with -autoscale)")
	minInst := flag.Int("min-instances", 0, "autoscaler floor (0 = 1)")
	maxInst := flag.Int("max-instances", 0, "autoscaler ceiling (0 = 4x initial)")
	interval := flag.Duration("interval", 0, "autoscaler control period (0 = 5s)")
	warmup := flag.Duration("warmup", 0, "launched-instance warm-up delay (0 = 2s)")
	drain := flag.Duration("drain", 0, "retirement delay after an instance empties (0 = 1s)")
	mttf := flag.Float64("mttf", 0, "per-instance mean time to failure in seconds (0 = no fault injection)")
	mttr := flag.Float64("mttr", 0, "mean repair delay in seconds (0 = 5)")
	domains := flag.Int("domains", 0, "correlated failure domains; instances map to domains by ID modulo this count (0 = off)")
	domainMTBF := flag.Float64("domain-mtbf", 0, "per-domain mean time between correlated outages in seconds (required with -domains)")
	domainMTTR := flag.Float64("domain-mttr", 0, "mean domain repair delay in seconds (0 = 10)")
	stragglerMTBF := flag.Float64("straggler-mtbf", 0, "per-member mean time between gray-failure straggler windows in seconds (0 = off)")
	stragglerDur := flag.Float64("straggler-duration", 0, "mean straggler window length in seconds (0 = 5)")
	stragglerSlow := flag.Float64("straggler-slowdown", 0, "pass-cost multiplier inside a straggler window (0 = 4)")
	hedgeDelay := flag.Float64("hedge-delay", 0, "duplicate a request still waiting for its first token after this many seconds (0 = hedging off)")
	auditFlag := flag.Bool("audit", false, "run the conservation auditor on the final report and fail on any violation")
	chaosN := flag.Int("chaos", 0, "chaos seed sweep: run N seeds across three failure scenarios with the auditor on, failing on any violation")
	hedgeSweepFlag := flag.String("hedge-sweep", "", "comma-separated hedge delays (seconds; 0 = no-hedge baseline) for a tail-latency sweep under straggler injection")
	degraded := flag.Float64("degraded", 0, "fraction of faults that degrade one replica instead of crashing")
	rematGBps := flag.Float64("remat-gbps", 0, "LUT re-materialization write bandwidth in GB/s (0 = 16)")
	deadline := flag.Float64("deadline", 0, "default per-request completion deadline in seconds (0 = none)")
	retries := flag.Int("retries", 0, "max service attempts per request (0 = 3)")
	retryBackoff := flag.Float64("retry-backoff", 0, "first retry backoff in seconds (0 = 0.05)")
	maxQueue := flag.Int("max-queue", 0, "per-instance admission queue bound (0 = unbounded)")
	kvPolicy := flag.String("kv", "gauge", "KV budget policy: gauge, stall or shed")
	par := flag.Int("j", 0, "host worker-pool size (0 = NumCPU); results are identical at any -j")
	sweepFlag := flag.String("sweep", "", "comma-separated arrival rates for a fleet-scaling sweep")
	fleetsFlag := flag.String("fleets", "", "comma-separated fleet sizes for -sweep (default: -instances)")
	mttfSweep := flag.String("mttf-sweep", "", "comma-separated MTTF values (seconds; 0 = fault-free baseline) for a reliability sweep")
	jsonOut := flag.Bool("json", false, "emit JSON")
	csvOut := flag.Bool("csv", false, "emit CSV")
	timeline := flag.Bool("timeline", false, "print the unified fleet timeline (table output only)")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	traceSample := flag.Int("trace-sample", 1, "keep every N-th request's lifecycle span in the trace")
	metricsOut := flag.String("metrics-out", "", "write interval time-series metrics to this file (.json = JSON, else CSV)")
	metricsInterval := flag.Duration("metrics-interval", time.Second, "time-series sampling interval")
	benchJSON := flag.String("bench-json", "", "run the cluster self-benchmark and write JSON to this path")
	benchFaultsJSON := flag.String("bench-faults-json", "", "run the faulted-fleet self-benchmark and write JSON to this path")
	benchObsJSON := flag.String("bench-obs-json", "", "run the observability-overhead self-benchmark and write JSON to this path")
	benchChaosJSON := flag.String("bench-chaos-json", "", "run the chaos-fleet self-benchmark (domains + stragglers + hedging, audited) and write JSON to this path")
	maxObsOverheadUS := flag.Float64("max-obs-overhead-us", 0, "fail -bench-obs-json when full recording costs more than this per admitted request, in microseconds (0 = no gate)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a post-GC pprof heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	profStop = stopProf
	defer stopProf()

	w := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fatal(err)
		}
		return
	}
	if *benchFaultsJSON != "" {
		if err := runBenchFaultsJSON(*benchFaultsJSON); err != nil {
			fatal(err)
		}
		return
	}
	if *benchObsJSON != "" {
		if err := runBenchObsJSON(*benchObsJSON, *maxObsOverheadUS); err != nil {
			fatal(err)
		}
		return
	}
	if *benchChaosJSON != "" {
		if err := runBenchChaosJSON(*benchChaosJSON); err != nil {
			fatal(err)
		}
		return
	}

	if *chaosN > 0 {
		if err := runChaos(w, *chaosN, *par, *jsonOut, *csvOut); err != nil {
			fatal(err)
		}
		return
	}

	if *hedgeSweepFlag != "" {
		err := runHedgeSweep(w, *hedgeSweepFlag, *model, *fmtName, *design,
			*instances, *replicas, *ranks, *routerName, *admissionName,
			*rate, *duration, *seed, *maxBatch, *sched, *quantum,
			*minTok, *maxTok, *meanTok, *outTok, *outTokMean, *outTokMax,
			*deadline, *stragglerMTBF, *stragglerDur, *stragglerSlow,
			*auditFlag, *csvOut)
		if err != nil {
			fatal(err)
		}
		return
	}

	if *mttfSweep != "" {
		err := runMTTFSweep(w, *mttfSweep, *model, *fmtName, *design, *designsFlag,
			*instances, *replicas, *ranks, *routerName, *admissionName,
			*rate, *duration, *seed, *maxBatch, *sched, *quantum,
			*minTok, *maxTok, *meanTok, *outTok, *outTokMean, *outTokMax,
			*mttr, *degraded, *rematGBps, *deadline, *retries, *retryBackoff,
			*maxQueue, *kvPolicy, *csvOut)
		if err != nil {
			fatal(err)
		}
		return
	}

	if *sweepFlag != "" {
		err := runSweep(w, *sweepFlag, *fleetsFlag, *model, *fmtName, *design,
			*instances, *replicas, *ranks, *routerName, *admissionName,
			*duration, *seed, *maxBatch, *sched, *quantum,
			*minTok, *maxTok, *meanTok, *outTok, *outTokMean, *outTokMax, *csvOut)
		if err != nil {
			fatal(err)
		}
		return
	}

	m, err := localut.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	f, err := localut.ParseFormat(*fmtName)
	if err != nil {
		fatal(err)
	}
	d, err := localut.ParseDesign(*design)
	if err != nil {
		fatal(err)
	}
	pol, err := localut.ParseSchedulerPolicy(*sched)
	if err != nil {
		fatal(err)
	}
	rt, err := localut.ParseRouterPolicy(*routerName)
	if err != nil {
		fatal(err)
	}
	adm, err := localut.ParseAdmissionPolicy(*admissionName)
	if err != nil {
		fatal(err)
	}
	kv, err := localut.ParseKVPolicy(*kvPolicy)
	if err != nil {
		fatal(err)
	}
	var designs []localut.Design
	if *designsFlag != "" {
		for _, name := range strings.Split(*designsFlag, ",") {
			dd, err := localut.ParseDesign(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			designs = append(designs, dd)
		}
	}
	classes, err := parseClasses(*classesFlag)
	if err != nil {
		fatal(err)
	}

	opts := []localut.Option{localut.WithSeed(*seed), localut.WithParallelism(*par)}
	if *ranks > 0 {
		opts = append(opts, localut.WithRanks(*ranks))
	}
	sys := localut.NewSystem(opts...)

	obsCfg, closeObs, err := obsfiles.Open(*traceOut, *traceSample, *metricsOut, metricsInterval.Seconds())
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	rep, err := sys.ServeCluster(localut.ClusterConfig{
		Model: m, Format: f, Design: d, Designs: designs,
		Instances:       *instances,
		Replicas:        *replicas,
		Router:          rt,
		Admission:       adm,
		Classes:         classes,
		RatePerSec:      *rate,
		DurationSeconds: duration.Seconds(),
		MaxBatch:        *maxBatch,
		Scheduler:       pol,
		MinTokens:       *minTok,
		MaxTokens:       *maxTok,
		MeanTokens:      *meanTok,
		TokenQuantum:    *quantum,
		OutTokens:       *outTok,
		OutTokensMean:   *outTokMean,
		OutTokensMax:    *outTokMax,
		MaxQueue:        *maxQueue,
		KVPolicy:        kv,
		Faults: localut.ClusterFaults{
			Enabled:          *mttf > 0,
			MTTFSeconds:      *mttf,
			MTTRSeconds:      *mttr,
			DegradedFraction: *degraded,
			LUTRematGBps:     *rematGBps,
		},
		Domains: localut.ClusterDomains{
			Enabled:     *domains > 0,
			Count:       *domains,
			MTBFSeconds: *domainMTBF,
			MTTRSeconds: *domainMTTR,
		},
		Stragglers: localut.ClusterStragglers{
			Enabled:             *stragglerMTBF > 0,
			MTBFSeconds:         *stragglerMTBF,
			MeanDurationSeconds: *stragglerDur,
			Slowdown:            *stragglerSlow,
		},
		Hedge: localut.ClusterHedge{
			Enabled:      *hedgeDelay > 0,
			DelaySeconds: *hedgeDelay,
		},
		Audit:     *auditFlag,
		Deadlines: localut.ClusterDeadlines{DefaultSeconds: *deadline},
		Retry: localut.ClusterRetry{
			MaxAttempts:    *retries,
			BackoffSeconds: *retryBackoff,
		},
		Autoscaler: localut.ClusterAutoscaler{
			Enabled:         *autoscale,
			MinInstances:    *minInst,
			MaxInstances:    *maxInst,
			IntervalSeconds: interval.Seconds(),
			SLOSeconds:      *slo,
			WarmupSeconds:   warmup.Seconds(),
			DrainSeconds:    drain.Seconds(),
		},
		Obs: obsCfg,
	})
	if err != nil {
		fatal(err)
	}
	if err := closeObs(); err != nil {
		fatal(err)
	}
	wall := time.Since(start).Seconds()

	switch {
	case *jsonOut:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	case *csvOut:
		if err := summaryTable(rep).CSV(w); err != nil {
			fatal(err)
		}
		if err := instanceTable(rep).CSV(w); err != nil {
			fatal(err)
		}
		if err := classTable(rep).CSV(w); err != nil {
			fatal(err)
		}
	default:
		for _, t := range []*trace.Table{summaryTable(rep), instanceTable(rep), classTable(rep)} {
			if err := t.Render(w); err != nil {
				fatal(err)
			}
			fmt.Fprintln(w)
		}
		if *timeline && len(rep.Timeline) > 0 {
			if err := timelineTable(rep).Render(w); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "simulated %d requests over %d instances (peak %d, %d distinct forward sims) in %.2fs host wall-clock\n",
		rep.Admitted, len(rep.Instances), rep.InstancesPeak, rep.DistinctForwardSims, wall)
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

// timelineTable lists the unified fleet timeline: autoscaler actions,
// fault injections/repairs and KV-pressure sheds through one rendering
// path, in event order.
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

// runSweep drives the experiments fleet-scaling driver.
func runSweep(w io.Writer, rates, fleets, model, fmtName, design string,
	instances, replicas, ranks int, routerName, admissionName string,
	duration time.Duration, seed int64, maxBatch int, sched string,
	quantum, minTok, maxTok int, meanTok float64, outTok int,
	outTokMean float64, outTokMax int, csvOut bool) error {

	rateVals, err := parseNums(rates)
	if err != nil {
		return err
	}
	fleetVals := []int{instances}
	if fleets != "" {
		fs, err := parseNums(fleets)
		if err != nil {
			return err
		}
		fleetVals = fleetVals[:0]
		for _, f := range fs {
			fleetVals = append(fleetVals, int(f))
		}
	}
	mc, err := modelConfig(model)
	if err != nil {
		return err
	}
	f, err := quant.ParseFormat(fmtName)
	if err != nil {
		return err
	}
	v, err := variantByName(design)
	if err != nil {
		return err
	}
	pol, err := serve.ParsePolicy(strings.ToLower(sched))
	if err != nil {
		return err
	}
	rt, err := cluster.ParseRouterPolicy(strings.ToLower(routerName))
	if err != nil {
		return err
	}
	adm, err := cluster.ParseAdmissionPolicy(strings.ToLower(admissionName))
	if err != nil {
		return err
	}

	base := cluster.Config{
		Base: serve.Config{
			Model: mc, Fmt: f, Variant: v,
			Replicas:      replicas,
			MaxBatch:      maxBatch,
			Scheduler:     pol,
			MinTokens:     minTok,
			MaxTokens:     maxTok,
			MeanTokens:    meanTok,
			TokenQuantum:  quantum,
			OutTokens:     outTok,
			OutTokensMean: outTokMean,
			OutTokensMax:  outTokMax,
		},
		Router:          rt,
		Admission:       adm,
		DurationSeconds: duration.Seconds(),
		Seed:            seed,
	}
	if ranks > 0 {
		eng := gemm.NewEngine()
		eng.Cfg.Ranks = ranks
		base.Base.Engine = eng
	}

	start := time.Now()
	points, err := experiments.ClusterCurve(base, fleetVals, rateVals)
	if err != nil {
		return err
	}
	table := experiments.ClusterTable(
		fmt.Sprintf("Fleet scaling: %s %s on %s, %s router, %s window",
			mc.Name, f.Name(), v, rt, duration), points)
	if csvOut {
		if err := table.CSV(w); err != nil {
			return err
		}
	} else if err := table.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d sweep points in %.2fs host wall-clock\n",
		len(points), time.Since(start).Seconds())
	return nil
}

// runMTTFSweep drives the experiments reliability driver: goodput and
// recovery tax per (design, MTTF), with MTTF 0 as the fault-free
// baseline each design is normalized against.
func runMTTFSweep(w io.Writer, mttfs, model, fmtName, design, designsList string,
	instances, replicas, ranks int, routerName, admissionName string,
	rate float64, duration time.Duration, seed int64, maxBatch int, sched string,
	quantum, minTok, maxTok int, meanTok float64, outTok int,
	outTokMean float64, outTokMax int,
	mttr, degraded, rematGBps, deadline float64, retries int, retryBackoff float64,
	maxQueue int, kvName string, csvOut bool) error {

	var mttfVals []float64
	for _, p := range strings.Split(mttfs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad -mttf-sweep value %q (want non-negative seconds, 0 = fault-free)", p)
		}
		mttfVals = append(mttfVals, v)
	}
	designNames := []string{design}
	if designsList != "" {
		designNames = strings.Split(designsList, ",")
	}
	var designs []kernels.Variant
	for _, name := range designNames {
		v, err := variantByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		designs = append(designs, v)
	}
	mc, err := modelConfig(model)
	if err != nil {
		return err
	}
	f, err := quant.ParseFormat(fmtName)
	if err != nil {
		return err
	}
	pol, err := serve.ParsePolicy(strings.ToLower(sched))
	if err != nil {
		return err
	}
	rt, err := cluster.ParseRouterPolicy(strings.ToLower(routerName))
	if err != nil {
		return err
	}
	adm, err := cluster.ParseAdmissionPolicy(strings.ToLower(admissionName))
	if err != nil {
		return err
	}
	kv, err := serve.ParseKVPolicy(strings.ToLower(kvName))
	if err != nil {
		return err
	}

	base := cluster.Config{
		Base: serve.Config{
			Model: mc, Fmt: f,
			Replicas:      replicas,
			MaxBatch:      maxBatch,
			Scheduler:     pol,
			MinTokens:     minTok,
			MaxTokens:     maxTok,
			MeanTokens:    meanTok,
			TokenQuantum:  quantum,
			OutTokens:     outTok,
			OutTokensMean: outTokMean,
			OutTokensMax:  outTokMax,
			MaxQueue:      maxQueue,
			KVPolicy:      kv,
		},
		Instances:       instances,
		Router:          rt,
		Admission:       adm,
		RatePerSec:      rate,
		DurationSeconds: duration.Seconds(),
		Seed:            seed,
		DeadlineSeconds: deadline,
		Faults: cluster.FaultConfig{
			MTTRSeconds:      mttr,
			DegradedFraction: degraded,
			LUTRematGBps:     rematGBps,
		},
		Retry: cluster.RetryConfig{
			MaxAttempts:    retries,
			BackoffSeconds: retryBackoff,
		},
	}
	if ranks > 0 {
		eng := gemm.NewEngine()
		eng.Cfg.Ranks = ranks
		base.Base.Engine = eng
	}

	start := time.Now()
	points, err := experiments.ReliabilityCurve(base, designs, mttfVals)
	if err != nil {
		return err
	}
	table := experiments.ReliabilityTable(
		fmt.Sprintf("Reliability: %s %s, %d instances at %g req/s, %s window",
			mc.Name, f.Name(), instances, rate, duration), points)
	if csvOut {
		if err := table.CSV(w); err != nil {
			return err
		}
	} else if err := table.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d reliability points in %.2fs host wall-clock\n",
		len(points), time.Since(start).Seconds())
	return nil
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

// runChaos is the chaos seed sweep: n seeds x 3 failure scenarios, every
// run with the conservation auditor on. Any auditor violation surfaces
// as a run error and a nonzero exit; a clean sweep prints one row per
// run, byte-identical for a given n at any -j.
func runChaos(w io.Writer, n, par int, jsonOut, csvOut bool) error {
	scenarios := chaosScenarios()
	rows := make([]chaosRow, 0, n*len(scenarios))
	start := time.Now()
	for _, sc := range scenarios {
		for seed := int64(1); seed <= int64(n); seed++ {
			cfg := chaosBase(seed)
			sc.mutate(&cfg)
			sys := localut.NewSystem(localut.WithSeed(seed), localut.WithParallelism(par))
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
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		t := trace.NewTable(fmt.Sprintf("Chaos sweep: %d seeds x %d scenarios, auditor on", n, len(scenarios)),
			"scenario", "seed", "admitted", "completed", "good", "shed", "crashes",
			"domain outages", "straggler windows", "hedges", "wins", "waste (s)", "unavail (s)")
		for _, r := range rows {
			t.Add(r.Scenario, r.Seed, r.Admitted, r.Completed, r.Good, r.Shed, r.Crashes,
				r.DomainOutages, r.StragglerWindows, r.HedgesIssued, r.HedgeWins,
				r.HedgeWastedSeconds, r.UnavailableSeconds)
		}
		if csvOut {
			if err := t.CSV(w); err != nil {
				return err
			}
		} else if err := t.Render(w); err != nil {
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
func runHedgeSweep(w io.Writer, delays, model, fmtName, design string,
	instances, replicas, ranks int, routerName, admissionName string,
	rate float64, duration time.Duration, seed int64, maxBatch int, sched string,
	quantum, minTok, maxTok int, meanTok float64, outTok int,
	outTokMean float64, outTokMax int, deadline float64,
	stragMTBF, stragDur, stragSlow float64, audit, csvOut bool) error {

	var delayVals []float64
	for _, p := range strings.Split(delays, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad -hedge-sweep value %q (want non-negative seconds, 0 = no hedging)", p)
		}
		delayVals = append(delayVals, v)
	}
	if stragMTBF == 0 {
		stragMTBF = 80
	}
	if stragDur == 0 {
		stragDur = 5
	}
	if stragSlow == 0 {
		stragSlow = 4
	}
	mc, err := modelConfig(model)
	if err != nil {
		return err
	}
	f, err := quant.ParseFormat(fmtName)
	if err != nil {
		return err
	}
	v, err := variantByName(design)
	if err != nil {
		return err
	}
	pol, err := serve.ParsePolicy(strings.ToLower(sched))
	if err != nil {
		return err
	}
	rt, err := cluster.ParseRouterPolicy(strings.ToLower(routerName))
	if err != nil {
		return err
	}
	adm, err := cluster.ParseAdmissionPolicy(strings.ToLower(admissionName))
	if err != nil {
		return err
	}

	base := cluster.Config{
		Base: serve.Config{
			Model: mc, Fmt: f, Variant: v,
			Replicas:      replicas,
			MaxBatch:      maxBatch,
			Scheduler:     pol,
			MinTokens:     minTok,
			MaxTokens:     maxTok,
			MeanTokens:    meanTok,
			TokenQuantum:  quantum,
			OutTokens:     outTok,
			OutTokensMean: outTokMean,
			OutTokensMax:  outTokMax,
		},
		Instances:       instances,
		Router:          rt,
		Admission:       adm,
		RatePerSec:      rate,
		DurationSeconds: duration.Seconds(),
		Seed:            seed,
		DeadlineSeconds: deadline,
		Audit:           audit,
		Stragglers: cluster.StragglerConfig{
			Enabled:             true,
			MTBFSeconds:         stragMTBF,
			MeanDurationSeconds: stragDur,
			Slowdown:            stragSlow,
		},
	}
	if ranks > 0 {
		eng := gemm.NewEngine()
		eng.Cfg.Ranks = ranks
		base.Base.Engine = eng
	}

	start := time.Now()
	points, err := experiments.HedgeCurve(base, delayVals)
	if err != nil {
		return err
	}
	table := experiments.HedgeTable(
		fmt.Sprintf("Hedging: %s %s, %d instances at %g req/s, stragglers %gx every %gs",
			mc.Name, f.Name(), instances, rate, stragSlow, stragMTBF), points)
	if csvOut {
		if err := table.CSV(w); err != nil {
			return err
		}
	} else if err := table.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d hedging points in %.2fs host wall-clock\n",
		len(points), time.Since(start).Seconds())
	return nil
}

// benchScenario is one timed cluster self-benchmark workload.
type benchScenario struct {
	Model            string  `json:"model"`
	Instances        int     `json:"instances"`
	RatePerSec       float64 `json:"rate_per_sec"`
	DurationSeconds  float64 `json:"duration_s"`
	Requests         int     `json:"requests"`
	PeakInstances    int     `json:"peak_instances"`
	DistinctSims     int     `json:"distinct_forward_sims"`
	WallSeconds      float64 `json:"wall_seconds"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	SimSecondsPerSec float64 `json:"simulated_seconds_per_wall_second"`
}

// benchReport pairs the million-request static-fleet acceptance workload
// with an autoscaled one, so scaling-path performance is tracked too.
type benchReport struct {
	Fleet      benchScenario `json:"fleet"`
	Autoscaled benchScenario `json:"autoscaled"`
}

// benchRun times one scenario.
func benchRun(cfg localut.ClusterConfig) (benchScenario, error) {
	sys := localut.NewSystem(localut.WithSeed(1))
	start := time.Now()
	rep, err := sys.ServeCluster(cfg)
	if err != nil {
		return benchScenario{}, err
	}
	wall := time.Since(start).Seconds()
	out := benchScenario{
		Model:           rep.Model,
		Instances:       cfg.Instances,
		RatePerSec:      cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds,
		Requests:        rep.Admitted,
		PeakInstances:   rep.InstancesPeak,
		DistinctSims:    rep.DistinctForwardSims,
		WallSeconds:     wall,
	}
	if wall > 0 {
		out.RequestsPerSec = float64(rep.Admitted) / wall
		out.SimSecondsPerSec = rep.MakespanSeconds / wall
	}
	return out, nil
}

// runBenchJSON times the acceptance workloads: one million requests over
// an eight-instance fleet, and an autoscaled decode fleet exercising the
// scale-up/drain paths.
func runBenchJSON(path string) error {
	fleet, err := benchRun(localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		RatePerSec:      17000,
		DurationSeconds: 60,
		Router:          localut.RouteLeastOutstanding,
	})
	if err != nil {
		return err
	}
	scaled, err := benchRun(localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       1,
		RatePerSec:      50,
		DurationSeconds: 60,
		OutTokens:       4,
		Autoscaler: localut.ClusterAutoscaler{
			Enabled: true, MaxInstances: 4, IntervalSeconds: 1,
			SLOSeconds: 1, ScaleDownFactor: 0.1,
		},
	})
	if err != nil {
		return err
	}
	out := benchReport{Fleet: fleet, Autoscaled: scaled}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (fleet: %d requests in %.2fs, %.0f req/s; autoscaled peak %d)\n",
		path, fleet.Requests, fleet.WallSeconds, fleet.RequestsPerSec, scaled.PeakInstances)
	return nil
}

// faultBenchScenario extends the timed scenario with reliability outcome
// counters, so regressions in the fault path's cost or behavior show up.
type faultBenchScenario struct {
	benchScenario
	GoodputPerSec      float64 `json:"goodput_per_s"`
	Crashes            int     `json:"crashes"`
	Retries            int     `json:"retries"`
	ReprefillTokens    int64   `json:"reprefill_tokens"`
	Shed               int     `json:"shed"`
	UnavailableSeconds float64 `json:"unavailable_s"`
}

// runBenchFaultsJSON times the faulted-fleet acceptance workload: an
// eight-instance fleet with deadlines, retries and fault injection dialed
// to several crashes per run.
func runBenchFaultsJSON(path string) error {
	sys := localut.NewSystem(localut.WithSeed(1))
	cfg := localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		RatePerSec:      2000,
		DurationSeconds: 60,
		Router:          localut.RouteLeastOutstanding,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 5},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 120, MTTRSeconds: 2},
	}
	start := time.Now()
	rep, err := sys.ServeCluster(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	out := faultBenchScenario{
		benchScenario: benchScenario{
			Model:           rep.Model,
			Instances:       cfg.Instances,
			RatePerSec:      cfg.RatePerSec,
			DurationSeconds: cfg.DurationSeconds,
			Requests:        rep.Admitted,
			PeakInstances:   rep.InstancesPeak,
			DistinctSims:    rep.DistinctForwardSims,
			WallSeconds:     wall,
		},
		GoodputPerSec:      rep.GoodputPerSec,
		Crashes:            rep.Crashes,
		Retries:            rep.Retries,
		ReprefillTokens:    rep.ReprefillTokens,
		Shed:               rep.Shed,
		UnavailableSeconds: rep.UnavailableSeconds,
	}
	if wall > 0 {
		out.RequestsPerSec = float64(rep.Admitted) / wall
		out.SimSecondsPerSec = rep.MakespanSeconds / wall
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d requests, %d crashes, %d retries in %.2fs)\n",
		path, rep.Admitted, rep.Crashes, rep.Retries, wall)
	return nil
}

// chaosBenchScenario extends the timed scenario with the chaos outcome
// counters, so regressions in the domain/straggler/hedge paths' cost or
// behavior show up.
type chaosBenchScenario struct {
	benchScenario
	GoodputPerSec           float64 `json:"goodput_per_s"`
	Crashes                 int     `json:"crashes"`
	DomainOutages           int     `json:"domain_outages"`
	DomainOverlapExtensions int     `json:"domain_overlap_extensions"`
	StragglerWindows        int     `json:"straggler_windows"`
	HedgesIssued            int     `json:"hedges_issued"`
	HedgeWins               int     `json:"hedge_wins"`
	HedgeWastedSeconds      float64 `json:"hedge_waste_s"`
	UnavailableSeconds      float64 `json:"unavailable_s"`
}

// runBenchChaosJSON times the chaos-fleet acceptance workload: an
// eight-instance decode fleet with independent faults, correlated domain
// outages, gray-failure stragglers and hedging all on, audited.
func runBenchChaosJSON(path string) error {
	sys := localut.NewSystem(localut.WithSeed(1))
	cfg := chaosBase(1)
	cfg.RatePerSec = 200
	cfg.DurationSeconds = 60
	chaosScenarios()[0].mutate(&cfg)
	start := time.Now()
	rep, err := sys.ServeCluster(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	out := chaosBenchScenario{
		benchScenario: benchScenario{
			Model:           rep.Model,
			Instances:       cfg.Instances,
			RatePerSec:      cfg.RatePerSec,
			DurationSeconds: cfg.DurationSeconds,
			Requests:        rep.Admitted,
			PeakInstances:   rep.InstancesPeak,
			DistinctSims:    rep.DistinctForwardSims,
			WallSeconds:     wall,
		},
		GoodputPerSec:           rep.GoodputPerSec,
		Crashes:                 rep.Crashes,
		DomainOutages:           rep.DomainOutages,
		DomainOverlapExtensions: rep.DomainOverlapExtensions,
		StragglerWindows:        rep.StragglerWindows,
		HedgesIssued:            rep.HedgesIssued,
		HedgeWins:               rep.HedgeWins,
		HedgeWastedSeconds:      rep.HedgeWastedSeconds,
		UnavailableSeconds:      rep.UnavailableSeconds,
	}
	if wall > 0 {
		out.RequestsPerSec = float64(rep.Admitted) / wall
		out.SimSecondsPerSec = rep.MakespanSeconds / wall
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d requests, %d domain outages, %d straggler windows, %d hedges in %.2fs)\n",
		path, rep.Admitted, rep.DomainOutages, rep.StragglerWindows, rep.HedgesIssued, wall)
	return nil
}

// obsBenchReport times the same faulted fleet with recording off and
// fully on (trace + metrics to discarded writers). DisabledWallSeconds
// is the hot path with nil-recorder no-ops — tracked across revisions,
// it catches recording costs leaking into the disabled path.
// PerRequestOverheadUS is full recording's marginal cost per admitted
// request, the gated number: the simulated fleet is so fast that a
// wall-clock ratio would amplify nanosecond noise.
type obsBenchReport struct {
	Requests             int     `json:"requests"`
	DisabledWallSeconds  float64 `json:"disabled_wall_s"`
	EnabledWallSeconds   float64 `json:"enabled_wall_s"`
	OverheadFraction     float64 `json:"overhead_fraction"`
	PerRequestOverheadUS float64 `json:"per_request_overhead_us"`
}

// runBenchObsJSON times the observability layer: one faulted
// eight-instance fleet run with a zero ObsConfig, one with trace and
// one-second metrics enabled, byte sinks for both outputs. A positive
// maxOverheadUS turns the per-request recording cost into a hard gate.
func runBenchObsJSON(path string, maxOverheadUS float64) error {
	cfg := localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		RatePerSec:      2000,
		DurationSeconds: 60,
		Router:          localut.RouteLeastOutstanding,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 5},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 120, MTTRSeconds: 2},
	}
	run := func(obs localut.ObsConfig) (float64, *localut.ClusterReport, error) {
		c := cfg
		c.Obs = obs
		sys := localut.NewSystem(localut.WithSeed(1))
		start := time.Now()
		rep, err := sys.ServeCluster(c)
		if err != nil {
			return 0, nil, err
		}
		return time.Since(start).Seconds(), rep, nil
	}
	// Warm-up run so neither timed run pays one-time costs (code paging,
	// allocator growth) the other doesn't.
	if _, _, err := run(localut.ObsConfig{}); err != nil {
		return err
	}
	disabledWall, rep, err := run(localut.ObsConfig{})
	if err != nil {
		return err
	}
	enabledWall, _, err := run(localut.ObsConfig{
		TraceWriter:            io.Discard,
		MetricsWriter:          io.Discard,
		MetricsIntervalSeconds: 1,
	})
	if err != nil {
		return err
	}
	out := obsBenchReport{
		Requests:            rep.Admitted,
		DisabledWallSeconds: disabledWall,
		EnabledWallSeconds:  enabledWall,
	}
	if disabledWall > 0 {
		out.OverheadFraction = (enabledWall - disabledWall) / disabledWall
	}
	if rep.Admitted > 0 {
		out.PerRequestOverheadUS = (enabledWall - disabledWall) / float64(rep.Admitted) * 1e6
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d requests; disabled %.2fs, enabled %.2fs, %.1fus/request recording cost)\n",
		path, out.Requests, disabledWall, enabledWall, out.PerRequestOverheadUS)
	if maxOverheadUS > 0 && out.PerRequestOverheadUS > maxOverheadUS {
		return fmt.Errorf("recording overhead regression: %.1fus per request exceeds the %.1fus gate",
			out.PerRequestOverheadUS, maxOverheadUS)
	}
	return nil
}

// parseNums parses "2,4,8".
func parseNums(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad sweep value %q (want positive numbers)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// modelConfig maps CLI names to dnn configs for the internal sweep path.
func modelConfig(name string) (dnn.ModelConfig, error) {
	switch strings.ToLower(name) {
	case "bert-base":
		return dnn.BERTBase(), nil
	case "opt-125m":
		return dnn.OPT125M(), nil
	case "vit-base":
		return dnn.ViTBase(), nil
	}
	return dnn.ModelConfig{}, fmt.Errorf("unknown model %q (want bert-base, opt-125m or vit-base)", name)
}

// variantByName resolves a design by its paper name, case-insensitively.
func variantByName(s string) (kernels.Variant, error) {
	for _, v := range kernels.Variants {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q", s)
}

// profStop flushes any active pprof collectors before an error exit, so a
// failing profiled run still leaves usable profiles. Idempotent; the
// success path defers the same stop.
var profStop = func() {}

func fatal(err error) {
	profStop()
	fmt.Fprintln(os.Stderr, "localut-cluster:", err)
	os.Exit(1)
}
