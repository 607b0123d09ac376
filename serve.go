package localut

import (
	"fmt"
	"strings"

	"github.com/ais-snu/localut/internal/serve"
)

// SchedulerPolicy selects how the serving simulator forms batches.
type SchedulerPolicy int

const (
	// ScheduleFCFS serves strictly in arrival order.
	ScheduleFCFS SchedulerPolicy = iota
	// SchedulePacked packs same-shape requests into uniform batches
	// (continuous-batching style): less padding waste, fewer distinct
	// GEMM shapes, at the price of bounded overtaking.
	SchedulePacked
)

// String names the policy ("fcfs", "packed").
func (p SchedulerPolicy) String() string { return serve.Policy(p).String() }

// ParseSchedulerPolicy parses "fcfs" or "packed".
func ParseSchedulerPolicy(s string) (SchedulerPolicy, error) {
	p, err := serve.ParsePolicy(strings.ToLower(s))
	return SchedulerPolicy(p), err
}

// ParseDesign parses a design point by its paper name ("NaivePIM", "LTC",
// "OP", "OP+LC", "OP+LC+RC", "LoCaLUT"), case-insensitively.
func ParseDesign(s string) (Design, error) {
	for _, d := range Designs {
		if strings.EqualFold(s, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("localut: unknown design %q", s)
}

// ParseModel parses a built-in model name ("bert-base", "opt-125m",
// "vit-base"), case-insensitively.
func ParseModel(s string) (Model, error) {
	for _, m := range []Model{BERTBase, OPT125M, ViTBase} {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("localut: unknown model %q (want bert-base, opt-125m or vit-base)", s)
}

// ServeConfig describes one request-level serving simulation on the
// system: a traffic pattern offered to a multi-rank LoCaLUT appliance
// whose forward passes are priced through the cycles-only backend.
// Exactly one arrival source is active: ArrivalTimes if non-empty, else a
// closed loop when Clients > 0, else open-loop Poisson at RatePerSec.
type ServeConfig struct {
	Model  Model
	Format Format
	Design Design

	// Replicas splits the appliance's ranks into independent serving
	// groups, each running one batch at a time (default 4; must not
	// exceed the rank count).
	Replicas int

	// RatePerSec is the open-loop Poisson arrival rate (requests/second).
	RatePerSec float64
	// Clients switches to a closed loop with this many clients; each
	// issues its next request an exponential think time (mean
	// ThinkSeconds, default 0.1) after its previous one completes.
	Clients      int
	ThinkSeconds float64
	// ArrivalTimes replays an explicit trace of arrival timestamps.
	ArrivalTimes []float64

	// DurationSeconds is the arrival window; admitted requests drain
	// afterwards (default 60).
	DurationSeconds float64
	// Seed overrides the system seed for this run (0 = system seed).
	Seed int64

	// MaxBatch bounds requests per batch (default 8).
	MaxBatch int
	// Scheduler picks the batch former (the zero value is ScheduleFCFS;
	// the localut-serve CLI defaults to packed).
	Scheduler SchedulerPolicy

	// MinTokens/MaxTokens/MeanTokens bound the sampled request lengths
	// (defaults 16 / 256 / the model's sequence length).
	MinTokens, MaxTokens int
	MeanTokens           float64
	// TokenQuantum is the shape-padding bucket (default 64): request and
	// batch token counts round up to it, so a million-request run prices
	// only a handful of distinct forward-pass shapes.
	TokenQuantum int

	// OutTokens fixes the output length of every request (decoder models
	// only; 0 = prefill-only serving). Decode runs at token granularity:
	// each step is priced at the live batch's true context and requests
	// leave the batch when their output completes.
	OutTokens int
	// OutTokensMean switches to sampled output lengths (bounded
	// shifted-exponential over [1, OutTokensMax] with this mean).
	OutTokensMean float64
	// OutTokensMax caps sampled output lengths (default 4*OutTokensMean).
	OutTokensMax int

	// Obs attaches the observability layer: request/batch trace export
	// and interval time-series metrics. The zero value records nothing.
	Obs ObsConfig
}

// LatencyStats summarizes a latency population in seconds.
type LatencyStats struct {
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	Mean float64 `json:"mean_s"`
	Max  float64 `json:"max_s"`
}

// ServeReport is the outcome of one serving simulation. Reports are
// bit-reproducible: the same system seed, config and parallelism-agnostic
// engine yield an identical report on every run.
type ServeReport struct {
	Model     string `json:"model"`
	Format    string `json:"format"`
	Design    string `json:"design"`
	Scheduler string `json:"scheduler"`
	Replicas  int    `json:"replicas"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Batches   int `json:"batches"`
	// DecodeSteps counts token-level decode forward passes.
	DecodeSteps int `json:"decode_steps"`

	MeanBatchSize    float64 `json:"mean_batch_size"`
	DurationSeconds  float64 `json:"duration_s"`
	MakespanSeconds  float64 `json:"makespan_s"`
	OfferedPerSec    float64 `json:"offered_per_s"`
	ThroughputPerSec float64 `json:"throughput_per_s"`

	Queue   LatencyStats `json:"queue"`
	Service LatencyStats `json:"service"`
	Latency LatencyStats `json:"latency"`
	// TTFT is time-to-first-token (admission to prefill completion);
	// TPOT is time-per-output-token after the first. Both are zero for
	// prefill-only runs.
	TTFT LatencyStats `json:"ttft"`
	TPOT LatencyStats `json:"tpot"`

	RankUtilization    float64   `json:"rank_utilization"`
	ReplicaUtilization []float64 `json:"replica_utilization"`
	PIMUtilization     float64   `json:"pim_utilization"`

	TokensIn     int64 `json:"tokens_in"`
	TokensPadded int64 `json:"tokens_padded"`
	TokensOut    int64 `json:"tokens_out"`
	// TokensPerSec is total token throughput (prompt + generated) over
	// the makespan.
	TokensPerSec float64 `json:"tokens_per_s"`

	// KVPeakBytes is the largest KV-cache footprint any replica held
	// during decode; KVCapacityBytes is one replica's DRAM capacity net
	// of the LUT budget; KVPeakUtilization is their ratio.
	KVPeakBytes       int64   `json:"kv_peak_bytes"`
	KVCapacityBytes   int64   `json:"kv_capacity_bytes"`
	KVPeakUtilization float64 `json:"kv_peak_utilization"`
	// KVMeanBytes is the time-weighted mean KV footprint per replica over
	// the makespan; KVMeanUtilization is its share of capacity.
	KVMeanBytes       float64 `json:"kv_mean_bytes"`
	KVMeanUtilization float64 `json:"kv_mean_utilization"`

	EnergyJ           float64 `json:"energy_j"`
	EnergyPerRequestJ float64 `json:"energy_per_request_j"`

	DistinctForwardSims int `json:"distinct_forward_sims"`

	// LatencyHistogram buckets every completed request's total latency
	// into equal-width bins over [0, LatencyHistogramHiS).
	LatencyHistogram   []int64 `json:"latency_histogram,omitempty"`
	LatencyHistogramHi float64 `json:"latency_histogram_hi_s,omitempty"`
}

// Serve runs a request-level serving simulation: seeded arrivals, sampled
// sequence lengths, an admission queue with the configured scheduler, and
// per-batch forward passes priced through the dnn/gemm planners in
// cycles-only mode on the replica's rank share. The discrete-event loop is
// deterministic — same seed and config produce a bit-identical report at
// any WithParallelism level — and memoization collapses a million requests
// into a handful of distinct simulations.
func (s *System) Serve(cfg ServeConfig) (*ServeReport, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = s.seed
	}
	rec, met := cfg.Obs.build()
	rep, err := serve.Run(serve.Config{
		Model:   cfg.Model.config(),
		Fmt:     cfg.Format.inner,
		Variant: cfg.Design.variant(),

		Engine: s.engine,
		Energy: s.energy,

		Replicas: cfg.Replicas,

		RatePerSec:   cfg.RatePerSec,
		Clients:      cfg.Clients,
		ThinkSeconds: cfg.ThinkSeconds,
		ArrivalTimes: cfg.ArrivalTimes,

		DurationSeconds: cfg.DurationSeconds,
		Seed:            seed,

		MaxBatch:  cfg.MaxBatch,
		Scheduler: serve.Policy(cfg.Scheduler),

		MinTokens:    cfg.MinTokens,
		MaxTokens:    cfg.MaxTokens,
		MeanTokens:   cfg.MeanTokens,
		TokenQuantum: cfg.TokenQuantum,

		OutTokens:     cfg.OutTokens,
		OutTokensMean: cfg.OutTokensMean,
		OutTokensMax:  cfg.OutTokensMax,

		Recorder: rec,
		Metrics:  met,
	})
	if err != nil {
		rec.Abandon()
		return nil, err
	}
	if err := cfg.Obs.export(rec, met); err != nil {
		return nil, err
	}
	return serveReport(rep), nil
}

// serveReport converts the internal report to the public shape.
func serveReport(r *serve.Report) *ServeReport {
	stats := func(s serve.Stats) LatencyStats {
		return LatencyStats{P50: s.P50, P95: s.P95, P99: s.P99, Mean: s.Mean, Max: s.Max}
	}
	out := &ServeReport{
		Model:     r.Model,
		Format:    r.Format,
		Design:    r.Design,
		Scheduler: r.Scheduler,
		Replicas:  r.Replicas,

		Requests:    r.Requests,
		Completed:   r.Completed,
		Batches:     r.Batches,
		DecodeSteps: r.DecodeSteps,

		MeanBatchSize:    r.MeanBatchSize,
		DurationSeconds:  r.DurationSeconds,
		MakespanSeconds:  r.MakespanSeconds,
		OfferedPerSec:    r.OfferedPerSec,
		ThroughputPerSec: r.ThroughputPerSec,

		Queue:   stats(r.Queue),
		Service: stats(r.Service),
		Latency: stats(r.Latency),
		TTFT:    stats(r.TTFT),
		TPOT:    stats(r.TPOT),

		RankUtilization:    r.RankUtilization,
		ReplicaUtilization: r.ReplicaUtilization,
		PIMUtilization:     r.PIMUtilization,

		TokensIn:     r.TokensIn,
		TokensPadded: r.TokensPadded,
		TokensOut:    r.TokensOut,
		TokensPerSec: r.TokensPerSec,

		KVPeakBytes:       r.KVPeakBytes,
		KVCapacityBytes:   r.KVCapacityBytes,
		KVPeakUtilization: r.KVPeakUtilization,
		KVMeanBytes:       r.KVMeanBytes,
		KVMeanUtilization: r.KVMeanUtilization,

		EnergyJ:           r.EnergyJ,
		EnergyPerRequestJ: r.EnergyPerRequestJ,

		DistinctForwardSims: r.DistinctForwardSims,
	}
	if r.LatencyHist != nil {
		out.LatencyHistogram = r.LatencyHist.Counts
		out.LatencyHistogramHi = r.LatencyHist.Hi
	}
	return out
}
