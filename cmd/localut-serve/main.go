// Command localut-serve runs the request-level serving simulator: a
// discrete-event traffic engine over the cycles-only execution backend.
// It offers a seeded arrival stream (open-loop Poisson by default, or a
// closed client loop) to a multi-rank LoCaLUT appliance, batches requests
// with the chosen scheduler, prices every forward pass through the gemm
// planners — autoregressive decode at token granularity with continuous
// batching — and reports latency percentiles, TTFT/TPOT, token
// throughput, utilization and energy per request — bit-identical for a
// given seed at any -j.
//
// Usage:
//
//	localut-serve -model bert-base -rate 100 -duration 60s -seed 1
//	localut-serve -model opt-125m -rate 50 -out-tokens-mean 32 -out-tokens-max 128
//	localut-serve -model opt-125m -design OP+LC+RC -scheduler fcfs -clients 32 -think 200ms
//	localut-serve -model bert-base -sweep 25,50,100,200,400 [-designs "OP+LC+RC,LoCaLUT"]
//	localut-serve -bench-json BENCH_serve.json
//
// Output is a key/value table by default; -json and -csv switch formats,
// -hist adds a latency histogram, -o writes to a file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/obsfiles"
	"github.com/ais-snu/localut/internal/audit"
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
	replicas := flag.Int("replicas", 4, "independent serving groups the ranks split into")
	ranks := flag.Int("ranks", 0, "override the appliance rank count (0 = testbed 32)")
	rate := flag.Float64("rate", 100, "open-loop Poisson arrival rate (requests/sec)")
	duration := flag.Duration("duration", 60*time.Second, "arrival window")
	seed := flag.Int64("seed", 1, "workload seed")
	maxBatch := flag.Int("max-batch", 8, "requests per batch")
	sched := flag.String("scheduler", "packed", "batch scheduler: fcfs or packed")
	clients := flag.Int("clients", 0, "closed-loop client count (overrides -rate)")
	think := flag.Duration("think", 100*time.Millisecond, "closed-loop mean think time")
	quantum := flag.Int("quantum", 64, "token padding quantum (shape bucket)")
	minTok := flag.Int("min-tokens", 16, "minimum request length")
	maxTok := flag.Int("max-tokens", 256, "maximum request length")
	meanTok := flag.Float64("mean-tokens", 0, "mean request length (0 = model sequence length)")
	outTok := flag.Int("out-tokens", 0, "fixed decode tokens per request (decoder models)")
	outTokMean := flag.Float64("out-tokens-mean", 0, "mean sampled decode tokens per request (overrides -out-tokens)")
	outTokMax := flag.Int("out-tokens-max", 0, "cap on sampled decode tokens (0 = 4x the mean)")
	par := flag.Int("j", 0, "host worker-pool size (0 = NumCPU); results are identical at any -j")
	sweepFlag := flag.String("sweep", "", "comma-separated arrival rates for a saturation sweep")
	designsFlag := flag.String("designs", "", "comma-separated designs for -sweep (default: -design)")
	jsonOut := flag.Bool("json", false, "emit JSON")
	csvOut := flag.Bool("csv", false, "emit CSV")
	hist := flag.Bool("hist", false, "print the latency histogram (table output only)")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	traceSample := flag.Int("trace-sample", 1, "keep every N-th request's lifecycle span in the trace")
	metricsOut := flag.String("metrics-out", "", "write interval time-series metrics to this file (.json = JSON, else CSV)")
	metricsInterval := flag.Duration("metrics-interval", time.Second, "time-series sampling interval")
	auditFlag := flag.Bool("audit", false, "run the conservation auditor on the final report and fail on any violation")
	benchJSON := flag.String("bench-json", "", "run the simulator self-benchmark and write JSON to this path")
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

	if *sweepFlag != "" {
		err := runSweep(w, *sweepFlag, *designsFlag, *model, *fmtName, *design,
			*replicas, *ranks, *duration, *seed, *maxBatch, *sched, *quantum,
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
	rep, err := sys.Serve(localut.ServeConfig{
		Model: m, Format: f, Design: d,
		Replicas:        *replicas,
		RatePerSec:      *rate,
		Clients:         *clients,
		ThinkSeconds:    think.Seconds(),
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
		Obs:             obsCfg,
	})
	if err != nil {
		fatal(err)
	}
	if err := closeObs(); err != nil {
		fatal(err)
	}
	wall := time.Since(start).Seconds()
	if *auditFlag {
		if err := auditServe(rep); err != nil {
			fatal(err)
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	case *csvOut:
		if err := reportTable(rep).CSV(w); err != nil {
			fatal(err)
		}
	default:
		if err := reportTable(rep).Render(w); err != nil {
			fatal(err)
		}
		if *hist && len(rep.LatencyHistogram) > 0 {
			h := &trace.Histogram{Lo: 0, Hi: rep.LatencyHistogramHi, Counts: rep.LatencyHistogram}
			fmt.Fprintf(w, "\nlatency histogram (s):\n")
			if err := h.Render(w); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "simulated %d requests (%d batches, %d distinct forward sims) in %.2fs host wall-clock\n",
		rep.Requests, rep.Batches, rep.DistinctForwardSims, wall)
}

// auditServe reconstructs the appliance's conservation ledger from the
// public report — the utilizations are ratios of the underlying busy
// seconds, so multiplying them back out recovers the raw quantities —
// and fails on any violated invariant.
func auditServe(r *localut.ServeReport) error {
	busy := r.RankUtilization * float64(r.Replicas) * r.MakespanSeconds
	a := &audit.Appliance{
		Requests:        r.Requests,
		Completed:       r.Completed,
		Shed:            r.Requests - r.Completed,
		Replicas:        r.Replicas,
		MakespanSeconds: r.MakespanSeconds,
		BusySeconds:     busy,
		PIMBusySeconds:  r.PIMUtilization * busy,
		EnergyJ:         r.EnergyPerRequestJ * float64(r.Completed),
	}
	if vs := audit.CheckAppliance(a); len(vs) > 0 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "conservation audit found %d violation(s)", len(vs))
		for _, v := range vs {
			sb.WriteString("\n  ")
			sb.WriteString(v.String())
		}
		return errors.New(sb.String())
	}
	fmt.Fprintln(os.Stderr, "conservation audit clean")
	return nil
}

// reportTable flattens a serving report into a two-column table.
func reportTable(r *localut.ServeReport) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("Serving %s %s on %s (%d replicas, %s scheduler)",
			r.Model, r.Format, r.Design, r.Replicas, r.Scheduler),
		"metric", "value")
	t.Add("requests", r.Requests)
	t.Add("completed", r.Completed)
	t.Add("batches", r.Batches)
	t.Add("mean batch size", r.MeanBatchSize)
	t.Add("offered (req/s)", r.OfferedPerSec)
	t.Add("throughput (req/s)", r.ThroughputPerSec)
	t.Add("arrival window (s)", r.DurationSeconds)
	t.Add("makespan (s)", r.MakespanSeconds)
	t.Add("queue p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g", r.Queue.P50, r.Queue.P95, r.Queue.P99))
	t.Add("service p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g", r.Service.P50, r.Service.P95, r.Service.P99))
	t.Add("latency p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g", r.Latency.P50, r.Latency.P95, r.Latency.P99))
	t.Add("latency mean/max (s)", fmt.Sprintf("%.4g / %.4g", r.Latency.Mean, r.Latency.Max))
	if r.DecodeSteps > 0 {
		t.Add("ttft p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g", r.TTFT.P50, r.TTFT.P95, r.TTFT.P99))
		t.Add("tpot p50/p95/p99 (s)", fmt.Sprintf("%.4g / %.4g / %.4g", r.TPOT.P50, r.TPOT.P95, r.TPOT.P99))
		t.Add("decode steps", r.DecodeSteps)
		t.Add("kv peak/capacity (bytes)", fmt.Sprintf("%d / %d (%.4g)",
			r.KVPeakBytes, r.KVCapacityBytes, r.KVPeakUtilization))
		t.Add("kv mean per replica (bytes)", fmt.Sprintf("%.4g (%.4g of capacity)",
			r.KVMeanBytes, r.KVMeanUtilization))
	}
	t.Add("rank utilization", r.RankUtilization)
	t.Add("pim share of busy time", r.PIMUtilization)
	t.Add("tokens in/padded/out", fmt.Sprintf("%d / %d / %d", r.TokensIn, r.TokensPadded, r.TokensOut))
	t.Add("tokens/s", r.TokensPerSec)
	t.Add("energy/request (J)", r.EnergyPerRequestJ)
	t.Add("distinct forward sims", r.DistinctForwardSims)
	return t
}

// runSweep drives the experiments saturation-curve driver.
func runSweep(w io.Writer, rates, designsCSV, model, fmtName, design string,
	replicas, ranks int, duration time.Duration, seed int64, maxBatch int,
	sched string, quantum, minTok, maxTok int, meanTok float64, outTok int,
	outTokMean float64, outTokMax int, csvOut bool) error {

	rateVals, err := parseRates(rates)
	if err != nil {
		return err
	}
	mc, err := modelConfig(model)
	if err != nil {
		return err
	}
	f, err := quant.ParseFormat(fmtName)
	if err != nil {
		return err
	}
	if designsCSV == "" {
		designsCSV = design
	}
	var designs []kernels.Variant
	for _, name := range strings.Split(designsCSV, ",") {
		v, err := variantByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		designs = append(designs, v)
	}
	pol, err := serve.ParsePolicy(strings.ToLower(sched))
	if err != nil {
		return err
	}

	base := serve.Config{
		Model: mc, Fmt: f,
		Replicas:        replicas,
		DurationSeconds: duration.Seconds(),
		Seed:            seed,
		MaxBatch:        maxBatch,
		Scheduler:       pol,
		MinTokens:       minTok,
		MaxTokens:       maxTok,
		MeanTokens:      meanTok,
		TokenQuantum:    quantum,
		OutTokens:       outTok,
		OutTokensMean:   outTokMean,
		OutTokensMax:    outTokMax,
	}
	if ranks > 0 {
		eng := gemm.NewEngine()
		eng.Cfg.Ranks = ranks
		base.Engine = eng
	}

	start := time.Now()
	points, err := experiments.ServingCurve(base, designs, rateVals)
	if err != nil {
		return err
	}
	table := experiments.ServingTable(
		fmt.Sprintf("Latency–throughput saturation: %s %s, %v replicas, %s scheduler, %s window",
			mc.Name, f.Name(), base.Replicas, pol, duration), points)
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

// benchScenario is one timed self-benchmark workload: how fast the
// serving simulator itself runs, tracked across PRs alongside
// BENCH_kernels.json.
type benchScenario struct {
	Model            string  `json:"model"`
	RatePerSec       float64 `json:"rate_per_sec"`
	DurationSeconds  float64 `json:"duration_s"`
	Requests         int     `json:"requests"`
	Batches          int     `json:"batches"`
	DecodeSteps      int     `json:"decode_steps"`
	TokensOut        int64   `json:"tokens_out"`
	DistinctSims     int     `json:"distinct_forward_sims"`
	WallSeconds      float64 `json:"wall_seconds"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	SimSecondsPerSec float64 `json:"simulated_seconds_per_wall_second"`
}

// benchReport pairs the prefill-only acceptance workload with a
// decode-heavy one, so step-level decode performance is tracked too.
type benchReport struct {
	Prefill benchScenario `json:"prefill"`
	Decode  benchScenario `json:"decode"`
}

// benchRun times one scenario.
func benchRun(cfg localut.ServeConfig) (benchScenario, error) {
	sys := localut.NewSystem(localut.WithSeed(1))
	start := time.Now()
	rep, err := sys.Serve(cfg)
	if err != nil {
		return benchScenario{}, err
	}
	wall := time.Since(start).Seconds()
	out := benchScenario{
		Model:           rep.Model,
		RatePerSec:      cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds,
		Requests:        rep.Requests,
		Batches:         rep.Batches,
		DecodeSteps:     rep.DecodeSteps,
		TokensOut:       rep.TokensOut,
		DistinctSims:    rep.DistinctForwardSims,
		WallSeconds:     wall,
	}
	if wall > 0 {
		out.RequestsPerSec = float64(rep.Requests) / wall
		out.SimSecondsPerSec = rep.MakespanSeconds / wall
	}
	return out, nil
}

// runBenchJSON times the acceptance workloads: a 60-second window at 2000
// req/s (>= 100k requests) on BERT-base, and a decode-heavy OPT-125M run
// whose cost is dominated by token-level decode steps.
func runBenchJSON(path string) error {
	prefill, err := benchRun(localut.ServeConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		RatePerSec:      2000,
		DurationSeconds: 60,
		Scheduler:       localut.SchedulePacked, // the CLI's default workload
	})
	if err != nil {
		return err
	}
	decode, err := benchRun(localut.ServeConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		RatePerSec:      200,
		DurationSeconds: 60,
		Scheduler:       localut.SchedulePacked,
		OutTokensMean:   32,
		OutTokensMax:    128,
	})
	if err != nil {
		return err
	}
	out := benchReport{Prefill: prefill, Decode: decode}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (prefill: %d requests in %.2fs, %.0f req/s; decode: %d steps in %.2fs)\n",
		path, prefill.Requests, prefill.WallSeconds, prefill.RequestsPerSec,
		decode.DecodeSteps, decode.WallSeconds)
	return nil
}

// parseRates parses "25,50,100".
func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -sweep rate %q (want positive numbers)", p)
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
	fmt.Fprintln(os.Stderr, "localut-serve:", err)
	os.Exit(1)
}
