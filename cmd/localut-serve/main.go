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
// -hist adds a latency histogram, -o writes to a file. Both modes run the
// one ServeConfig the flags describe, -sweep overriding the design and rate
// per point; every flag is honoured in every mode or refused by name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/cli"
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
	hist    bool
}

func (o *options) register(fs *flag.FlagSet) {
	o.Workload.Register(fs)
	o.out.Register(fs)
	fs.Float64Var(&o.rate, "rate", 100, "open-loop Poisson arrival rate (requests/sec)")
	fs.IntVar(&o.clients, "clients", 0, "closed-loop client count (overrides -rate)")
	fs.DurationVar(&o.think, "think", 100*time.Millisecond, "closed-loop mean think time")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated arrival rates for a saturation sweep")
	fs.StringVar(&o.designs, "designs", "", "comma-separated designs for -sweep (default: -design)")
	fs.BoolVar(&o.hist, "hist", false, "print the latency histogram (table output only)")
}

func main() { cli.Main("localut-serve", run) }

func run() error {
	var o options
	o.register(flag.CommandLine)
	return o.out.Run(o.execute)
}

// execute runs the mode the flags in fs select, writing its output to w:
// the one ServeConfig they describe, run once or once per sweep point.
func (o *options) execute(fs *flag.FlagSet, w io.Writer) error {
	mode, refused := "a single run", cli.Among("designs")
	if o.sweep != "" {
		mode, refused = "-sweep", cli.Among("rate", "clients", "json", "hist", "trace-out", "metrics-out")
	}
	if err := cli.Refuse(fs, mode, refused); err != nil {
		return err
	}
	n, err := o.Names(o.designs)
	if err != nil {
		return err
	}
	cfg := localut.ServeConfig{
		Model: n.Model, Format: n.Format, Design: n.Design,
		Replicas:        o.Replicas,
		RatePerSec:      o.rate,
		Clients:         o.clients,
		ThinkSeconds:    o.think.Seconds(),
		DurationSeconds: o.Duration.Seconds(),
		MaxBatch:        o.MaxBatch,
		Scheduler:       n.Scheduler,
		MinTokens:       o.MinTokens,
		MaxTokens:       o.MaxTokens,
		MeanTokens:      o.MeanTokens,
		TokenQuantum:    o.Quantum,
		OutTokens:       o.OutTokens,
		OutTokensMean:   o.OutTokensMean,
		OutTokensMax:    o.OutTokensMax,
	}
	if o.sweep != "" {
		return o.runSweep(w, cfg, n.Designs)
	}

	obsCfg, closeObs, err := o.out.Obs()
	if err != nil {
		return err
	}
	cfg.Obs = obsCfg
	start := time.Now()
	rep, err := o.System().Serve(cfg)
	if err := errors.Join(err, closeObs()); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	if o.out.JSON {
		err = cli.WriteJSON(w, rep)
	} else {
		err = o.out.Table(w, reportTable(rep))
		if err == nil && !o.out.CSV && o.hist && len(rep.LatencyHistogram) > 0 {
			h := &trace.Histogram{Lo: 0, Hi: rep.LatencyHistogramHi, Counts: rep.LatencyHistogram}
			fmt.Fprintf(w, "\nlatency histogram (s):\n")
			err = h.Render(w)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simulated %d requests (%d batches, %d distinct forward sims) in %.2fs host wall-clock\n",
		rep.Requests, rep.Batches, rep.DistinctForwardSims, wall)
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

// runSweep is the saturation sweep: cfg at each -sweep rate for each
// -designs design (default: -design), one table row per run, every run on
// one System. The swept rate is the only arrival source.
func (o *options) runSweep(w io.Writer, cfg localut.ServeConfig, designs []localut.Design) error {
	rates, err := cli.ParseNums(o.sweep, false)
	if err != nil {
		return err
	}
	if len(designs) == 0 {
		designs = []localut.Design{cfg.Design}
	}
	t := trace.NewTable(
		fmt.Sprintf("Latency–throughput saturation: %s %s, %v replicas, %s scheduler, %s window",
			cfg.Model, cfg.Format.Name(), cfg.Replicas, cfg.Scheduler, o.Duration),
		"design", "rate/s", "offered/s", "throughput/s", "tokens/s",
		"p50 (s)", "p95 (s)", "p99 (s)", "ttft p99 (s)", "tpot p99 (s)",
		"util", "batch", "requests")
	sys := o.System()
	start := time.Now()
	for _, d := range designs {
		for _, r := range rates {
			cfg.Design, cfg.RatePerSec = d, r
			rep, err := sys.Serve(cfg)
			if err != nil {
				return err
			}
			t.Add(rep.Design, r, rep.OfferedPerSec, rep.ThroughputPerSec, rep.TokensPerSec,
				rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.TTFT.P99, rep.TPOT.P99,
				rep.RankUtilization, rep.MeanBatchSize, rep.Requests)
		}
	}
	return o.out.Sweep(w, t, "sweep", start)
}
