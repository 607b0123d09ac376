// Package cli is the plumbing localut-serve, localut-cluster and
// localut-bench share: the error exit, the -o/-json/-csv output selection,
// the appliance and request-shape flags both serving commands take, and
// the name parsers of the internal sweep paths.
package cli

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
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
)

// Main runs a command body and turns its error into "name: err" on
// standard error and exit status 1. The body has returned by then, so its
// deferred pprof stop and file closes have run: a failing profiled run
// still leaves usable profiles.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Output is the -o/-json/-csv selection of the serving commands.
type Output struct {
	Path      string
	JSON, CSV bool
}

// Register binds the three flags.
func (o *Output) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Path, "o", "", "write output to this file instead of stdout")
	fs.BoolVar(&o.JSON, "json", false, "emit JSON")
	fs.BoolVar(&o.CSV, "csv", false, "emit CSV")
}

// Open returns the writer -o selects (standard output when unset) and its
// closer, whose error the caller reports: the file has just been written.
func (o *Output) Open() (io.Writer, func() error, error) {
	if o.Path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(o.Path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Table writes t as CSV under -csv and as an aligned text table otherwise.
func (o *Output) Table(w io.Writer, t *trace.Table) error {
	if o.CSV {
		return t.CSV(w)
	}
	return t.Render(w)
}

// WriteJSON writes v the way -json does: two-space indented, one document.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Workload is the flag set localut-serve and localut-cluster share: what
// one appliance runs, how requests are shaped and batched, and the host
// worker pool.
type Workload struct {
	Model, Format, Design string
	Replicas, Ranks       int

	Duration time.Duration
	Seed     int64

	MaxBatch  int
	Scheduler string
	Quantum   int

	MinTokens, MaxTokens int
	MeanTokens           float64

	OutTokens     int
	OutTokensMean float64
	OutTokensMax  int

	Parallelism int
}

// Register binds the shared flags.
func (w *Workload) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Model, "model", "bert-base", "model: bert-base, opt-125m or vit-base")
	fs.StringVar(&w.Format, "fmt", "W1A3", "quantization format (WxAy)")
	fs.StringVar(&w.Design, "design", "LoCaLUT", "kernel design point")
	fs.IntVar(&w.Replicas, "replicas", 4, "independent serving groups each appliance's ranks split into")
	fs.IntVar(&w.Ranks, "ranks", 0, "override each appliance's rank count (0 = testbed 32)")
	fs.DurationVar(&w.Duration, "duration", 60*time.Second, "arrival window")
	fs.Int64Var(&w.Seed, "seed", 1, "workload seed")
	fs.IntVar(&w.MaxBatch, "max-batch", 8, "requests per batch")
	fs.StringVar(&w.Scheduler, "scheduler", "packed", "batch scheduler: fcfs or packed")
	fs.IntVar(&w.Quantum, "quantum", 64, "token padding quantum (shape bucket)")
	fs.IntVar(&w.MinTokens, "min-tokens", 16, "minimum request length")
	fs.IntVar(&w.MaxTokens, "max-tokens", 256, "maximum request length")
	fs.Float64Var(&w.MeanTokens, "mean-tokens", 0, "mean request length (0 = model sequence length)")
	fs.IntVar(&w.OutTokens, "out-tokens", 0, "fixed decode tokens per request (decoder models)")
	fs.Float64Var(&w.OutTokensMean, "out-tokens-mean", 0, "mean sampled decode tokens per request (overrides -out-tokens)")
	fs.IntVar(&w.OutTokensMax, "out-tokens-max", 0, "cap on sampled decode tokens (0 = 4x the mean)")
	fs.IntVar(&w.Parallelism, "j", 0, "host worker-pool size (0 = NumCPU); results are identical at any -j")
}

// System builds the facade system the flags describe: seed, worker pool
// and rank override.
func (w *Workload) System() *localut.System {
	opts := []localut.Option{localut.WithSeed(w.Seed), localut.WithParallelism(w.Parallelism)}
	if w.Ranks > 0 {
		opts = append(opts, localut.WithRanks(w.Ranks))
	}
	return localut.NewSystem(opts...)
}

// Instance is the per-appliance serve.Config the flags describe — the
// template the internal sweep drivers vary — on its own engine when
// -ranks overrides the testbed. Arrival source, window and seed are the
// caller's.
func (w *Workload) Instance() (serve.Config, error) {
	mc, err := ModelConfig(w.Model)
	if err != nil {
		return serve.Config{}, err
	}
	f, err := quant.ParseFormat(w.Format)
	if err != nil {
		return serve.Config{}, err
	}
	v, err := VariantByName(w.Design)
	if err != nil {
		return serve.Config{}, err
	}
	pol, err := serve.ParsePolicy(w.Scheduler)
	if err != nil {
		return serve.Config{}, err
	}
	c := serve.Config{
		Model: mc, Fmt: f, Variant: v,
		Replicas:      w.Replicas,
		MaxBatch:      w.MaxBatch,
		Scheduler:     pol,
		MinTokens:     w.MinTokens,
		MaxTokens:     w.MaxTokens,
		MeanTokens:    w.MeanTokens,
		TokenQuantum:  w.Quantum,
		OutTokens:     w.OutTokens,
		OutTokensMean: w.OutTokensMean,
		OutTokensMax:  w.OutTokensMax,
	}
	if w.Ranks > 0 {
		c.Engine = gemm.NewEngine()
		c.Engine.Cfg.Ranks = w.Ranks
	}
	return c, nil
}

// ModelConfig maps a CLI model name to its dnn config, case-insensitively.
func ModelConfig(name string) (dnn.ModelConfig, error) {
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

// VariantByName resolves a design by its paper name, case-insensitively.
func VariantByName(s string) (kernels.Variant, error) {
	for _, v := range kernels.Variants {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q", s)
}

// Variants resolves a comma-separated design list.
func Variants(list string) ([]kernels.Variant, error) {
	var out []kernels.Variant
	for _, name := range strings.Split(list, ",") {
		v, err := VariantByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseNums parses a comma-separated list of sweep values ("25, 50,100").
// Every value must be positive, or non-negative when zeroOK (the sweeps
// that take 0 as their baseline point).
func ParseNums(s string, zeroOK bool) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v > 0 || (zeroOK && v == 0)) { // NaN fails both
			want := "positive numbers"
			if zeroOK {
				want = "non-negative numbers"
			}
			return nil, fmt.Errorf("bad sweep value %q (want %s)", p, want)
		}
		out = append(out, v)
	}
	return out, nil
}
