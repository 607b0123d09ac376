package localut

import (
	"fmt"
	"strings"

	"github.com/ais-snu/localut/internal/serve"
)

// The serving types below are aliases: each is declared once, with its
// JSON schema, in internal/serve, and exported here under its public name.

// SchedulerPolicy selects how the serving simulator forms batches.
type SchedulerPolicy = serve.Policy

const (
	// ScheduleFCFS serves strictly in arrival order.
	ScheduleFCFS = serve.FCFS
	// SchedulePacked packs same-shape requests into uniform batches
	// (continuous-batching style): less padding waste, fewer distinct
	// GEMM shapes, at the price of bounded overtaking.
	SchedulePacked = serve.Packed
)

// ParseSchedulerPolicy parses "fcfs" or "packed", case-insensitively.
func ParseSchedulerPolicy(s string) (SchedulerPolicy, error) { return serve.ParsePolicy(s) }

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
type LatencyStats = serve.Stats

// ServeReport is the outcome of one serving simulation. Reports are
// bit-reproducible: the same system seed, config and parallelism-agnostic
// engine yield an identical report on every run.
type ServeReport = serve.Report

// Serve runs a request-level serving simulation: seeded arrivals, sampled
// sequence lengths, an admission queue with the configured scheduler, and
// per-batch forward passes priced through the dnn/gemm planners in
// cycles-only mode on the replica's rank share. The discrete-event loop is
// deterministic — same seed and config produce a bit-identical report at
// any WithParallelism level — and memoization collapses a million requests
// into a handful of distinct simulations. Every run audits its books as a
// one-member fleet; a run whose books do not balance is an error.
func (s *System) Serve(cfg ServeConfig) (*ServeReport, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = s.seed
	}
	model, format, err := modelAndFormat(cfg.Model, cfg.Format)
	if err != nil {
		return nil, err
	}
	rec, met, err := cfg.Obs.build()
	if err != nil {
		return nil, err
	}
	rep, err := serve.Run(serve.Config{
		Model:   model,
		Fmt:     format,
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
		Scheduler: cfg.Scheduler,

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
	return rep, nil
}
