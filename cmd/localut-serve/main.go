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
//
// Output is a key/value table by default; -json and -csv switch formats,
// -hist adds a latency histogram, -o writes to a file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/cli"
	"github.com/ais-snu/localut/cmd/internal/obsfiles"
	"github.com/ais-snu/localut/internal/audit"
	"github.com/ais-snu/localut/internal/experiments"
	"github.com/ais-snu/localut/internal/prof"
	"github.com/ais-snu/localut/internal/trace"
)

// options are the parsed flags.
type options struct {
	cli.Workload
	out cli.Output

	rate    float64
	clients int
	think   time.Duration
	sweep   string
	designs string
}

func main() { cli.Main("localut-serve", run) }

func run() error {
	var o options
	o.Workload.Register(flag.CommandLine)
	o.out.Register(flag.CommandLine)
	flag.Float64Var(&o.rate, "rate", 100, "open-loop Poisson arrival rate (requests/sec)")
	flag.IntVar(&o.clients, "clients", 0, "closed-loop client count (overrides -rate)")
	flag.DurationVar(&o.think, "think", 100*time.Millisecond, "closed-loop mean think time")
	flag.StringVar(&o.sweep, "sweep", "", "comma-separated arrival rates for a saturation sweep")
	flag.StringVar(&o.designs, "designs", "", "comma-separated designs for -sweep (default: -design)")
	hist := flag.Bool("hist", false, "print the latency histogram (table output only)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	traceSample := flag.Int("trace-sample", 1, "keep every N-th request's lifecycle span in the trace")
	metricsOut := flag.String("metrics-out", "", "write interval time-series metrics to this file (.json = JSON, else CSV)")
	metricsInterval := flag.Duration("metrics-interval", time.Second, "time-series sampling interval")
	auditFlag := flag.Bool("audit", false, "run the conservation auditor on the final report and fail on any violation")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a post-GC pprof heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	w, closeOut, err := o.out.Open()
	if err != nil {
		return err
	}
	if o.sweep != "" {
		return errors.Join(runSweep(w, &o), closeOut())
	}

	m, err := localut.ParseModel(o.Model)
	if err != nil {
		return err
	}
	f, err := localut.ParseFormat(o.Format)
	if err != nil {
		return err
	}
	d, err := localut.ParseDesign(o.Design)
	if err != nil {
		return err
	}
	pol, err := localut.ParseSchedulerPolicy(o.Scheduler)
	if err != nil {
		return err
	}
	obsCfg, closeObs, err := obsfiles.Open(*traceOut, *traceSample, *metricsOut, metricsInterval.Seconds())
	if err != nil {
		return err
	}

	start := time.Now()
	rep, err := o.System().Serve(localut.ServeConfig{
		Model: m, Format: f, Design: d,
		Replicas:        o.Replicas,
		RatePerSec:      o.rate,
		Clients:         o.clients,
		ThinkSeconds:    o.think.Seconds(),
		DurationSeconds: o.Duration.Seconds(),
		MaxBatch:        o.MaxBatch,
		Scheduler:       pol,
		MinTokens:       o.MinTokens,
		MaxTokens:       o.MaxTokens,
		MeanTokens:      o.MeanTokens,
		TokenQuantum:    o.Quantum,
		OutTokens:       o.OutTokens,
		OutTokensMean:   o.OutTokensMean,
		OutTokensMax:    o.OutTokensMax,
		Obs:             obsCfg,
	})
	if err := errors.Join(err, closeObs()); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	if *auditFlag {
		if err := auditServe(rep); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "conservation audit clean")
	}

	if o.out.JSON {
		err = cli.WriteJSON(w, rep)
	} else {
		err = o.out.Table(w, reportTable(rep))
		if err == nil && !o.out.CSV && *hist && len(rep.LatencyHistogram) > 0 {
			h := &trace.Histogram{Lo: 0, Hi: rep.LatencyHistogramHi, Counts: rep.LatencyHistogram}
			fmt.Fprintf(w, "\nlatency histogram (s):\n")
			err = h.Render(w)
		}
	}
	if err := errors.Join(err, closeOut()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simulated %d requests (%d batches, %d distinct forward sims) in %.2fs host wall-clock\n",
		rep.Requests, rep.Batches, rep.DistinctForwardSims, wall)
	return nil
}

// auditServe reconstructs the appliance's conservation ledger from the
// public report — the utilizations are ratios of the underlying busy
// seconds, so multiplying them back out recovers the raw quantities —
// and fails on any violated invariant.
func auditServe(r *localut.ServeReport) error {
	busy := r.RankUtilization * float64(r.Replicas) * r.MakespanSeconds
	vs := audit.CheckAppliance(&audit.Appliance{
		Requests:        r.Requests,
		Completed:       r.Completed,
		Shed:            r.Shed,
		Replicas:        r.Replicas,
		MakespanSeconds: r.MakespanSeconds,
		BusySeconds:     busy,
		PIMBusySeconds:  r.PIMUtilization * busy,
		EnergyJ:         r.EnergyPerRequestJ * float64(r.Completed),
	})
	if len(vs) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "conservation audit found %d violation(s)", len(vs))
	for _, v := range vs {
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	return errors.New(sb.String())
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
func runSweep(w io.Writer, o *options) error {
	rates, err := cli.ParseNums(o.sweep, false)
	if err != nil {
		return err
	}
	base, err := o.Instance()
	if err != nil {
		return err
	}
	base.DurationSeconds = o.Duration.Seconds()
	base.Seed = o.Seed
	if o.designs == "" {
		o.designs = o.Design
	}
	designs, err := cli.Variants(o.designs)
	if err != nil {
		return err
	}

	start := time.Now()
	points, err := experiments.ServingCurve(base, designs, rates)
	if err != nil {
		return err
	}
	table := experiments.ServingTable(
		fmt.Sprintf("Latency–throughput saturation: %s %s, %v replicas, %s scheduler, %s window",
			base.Model.Name, base.Fmt.Name(), base.Replicas, base.Scheduler, o.Duration), points)
	if err := o.out.Table(w, table); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d sweep points in %.2fs host wall-clock\n",
		len(points), time.Since(start).Seconds())
	return nil
}
