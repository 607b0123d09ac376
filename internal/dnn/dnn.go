package dnn

import (
	"fmt"

	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// ModelConfig describes a transformer's shape.
type ModelConfig struct {
	Name    string
	Layers  int
	Hidden  int
	FFN     int
	Heads   int
	SeqLen  int  // tokens per sequence (prompt length for decoders)
	Decoder bool // autoregressive generation supported
}

// BERTBase is the encoder-only language model (110M parameters, §VI-A).
func BERTBase() ModelConfig {
	return ModelConfig{Name: "BERT-base", Layers: 12, Hidden: 768, FFN: 3072,
		Heads: 12, SeqLen: 128}
}

// OPT125M is the decoder-only language model.
func OPT125M() ModelConfig {
	return ModelConfig{Name: "OPT-125M", Layers: 12, Hidden: 768, FFN: 3072,
		Heads: 12, SeqLen: 128, Decoder: true}
}

// ViTBase is the vision transformer (86M parameters, 196 patches + CLS).
func ViTBase() ModelConfig {
	return ModelConfig{Name: "ViT-Base", Layers: 12, Hidden: 768, FFN: 3072,
		Heads: 12, SeqLen: 197}
}

// GEMMShape is one projection executed on PIM: out = W(M x K) x acts(K x N).
type GEMMShape struct {
	Name string
	M, K int
}

// LayerGEMMs returns the per-layer PIM GEMMs of Fig. 8: fused QKV
// projection, attention output projection, and the two FFN projections.
func (m ModelConfig) LayerGEMMs() []GEMMShape {
	return []GEMMShape{
		{Name: "qkv", M: 3 * m.Hidden, K: m.Hidden},
		{Name: "out", M: m.Hidden, K: m.Hidden},
		{Name: "ffn1", M: m.FFN, K: m.Hidden},
		{Name: "ffn2", M: m.Hidden, K: m.FFN},
	}
}

// HostModel prices the host-resident fp32 operations (softmax, layernorm,
// GELU, attention score/context matmuls) of Fig. 8.
type HostModel struct {
	// FlopsPerSec is the effective multicore fp32 throughput of the host
	// (Xeon Gold 5215 class with AVX-512).
	FlopsPerSec float64
}

// DefaultHost returns the testbed host model.
func DefaultHost() HostModel { return HostModel{FlopsPerSec: 2e11} }

// attnFlops estimates per-layer attention flops on the host for `tokens`
// query positions attending over a context of ctx keys. ctx is a float so
// closed forms can price a phase at the exact (possibly fractional) mean
// context of its steps: every term is linear in ctx, so pricing at the
// mean equals the mean of per-step prices.
func (m ModelConfig) attnFlops(tokens int, ctx float64) float64 {
	dHead := m.Hidden / m.Heads
	qk := 2.0 * float64(tokens) * ctx * float64(dHead) * float64(m.Heads)
	pv := qk
	softmax := 5.0 * float64(tokens) * ctx * float64(m.Heads)
	return qk + pv + softmax
}

// hostElementwiseFlops estimates per-layer layernorm/GELU/residual flops.
func (m ModelConfig) hostElementwiseFlops(tokens int) float64 {
	ln := 2 * 8.0 * float64(tokens) * float64(m.Hidden)
	gelu := 8.0 * float64(tokens) * float64(m.FFN)
	resid := 4.0 * float64(tokens) * float64(m.Hidden)
	return ln + gelu + resid
}

// Runner executes a model configuration on the simulated system.
type Runner struct {
	Engine  *gemm.Engine
	Host    HostModel
	Model   ModelConfig
	Fmt     quant.Format
	Variant kernels.Variant
	// Seed makes the synthetic weights/activations reproducible.
	Seed int64
	// MaxSimCols caps the simulated activation columns per GEMM; wider
	// GEMMs are column-subsampled and scaled (all per-column costs are
	// linear in N). 0 means no cap.
	MaxSimCols int
}

// NewRunner builds a runner with testbed defaults.
func NewRunner(model ModelConfig, f quant.Format, v kernels.Variant) *Runner {
	return &Runner{
		Engine:     gemm.NewEngine(),
		Host:       DefaultHost(),
		Model:      model,
		Fmt:        f,
		Variant:    v,
		Seed:       1,
		MaxSimCols: 8192,
	}
}

// PhaseReport aggregates one inference phase.
type PhaseReport struct {
	// Phase is "prefill" or "decode".
	Phase  string
	Tokens int
	// Seconds by Fig. 16(a) category.
	GEMMPIM   float64
	Transfer  float64
	Quantize  float64
	SortPack  float64
	HostOther float64 // attention, softmax, LN, GELU (host fp32)
	Total     float64
	// Meter aggregates device events for the energy model; HostOps counts
	// host scalar operations (quant pipeline + fp32 ops).
	Meter   pim.Meter
	HostOps int64
}

// categories sums into the total.
func (p *PhaseReport) finalize() {
	p.Total = p.GEMMPIM + p.Transfer + p.Quantize + p.SortPack + p.HostOther
}

// runGEMM executes one layer GEMM at the given token count, with column
// subsampling for very wide activations.
func (r *Runner) runGEMM(sh GEMMShape, tokens int, seed int64) (*gemm.Report, float64, error) {
	n := tokens
	scale := 1.0
	// Subsampling is valid only while the bank grid stays saturated —
	// below NumDPUs columns, extra columns map to idle banks rather than
	// per-bank work, and time is no longer column-linear.
	floor := r.Engine.Cfg.NumDPUs()
	if cap := max(r.MaxSimCols, floor); r.MaxSimCols > 0 && n > cap {
		scale = float64(n) / float64(cap)
		n = cap
	}
	pair, err := r.Engine.NewPair(sh.M, sh.K, n, r.Fmt, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("dnn: %s %s: %w", r.Model.Name, sh.Name, err)
	}
	rep, err := r.Engine.Run(pair, gemm.Options{Variant: r.Variant})
	if err != nil {
		return nil, 0, fmt.Errorf("dnn: %s %s: %w", r.Model.Name, sh.Name, err)
	}
	return rep, scale, nil
}

// runPhase executes all layer GEMMs once at the token count and scales by
// the layer count (layers share shapes; per-layer timings are identical).
// ctx may be fractional: it only feeds the host attention estimate, which
// is linear in it.
func (r *Runner) runPhase(phase string, tokens int, ctx float64) (*PhaseReport, error) {
	if tokens <= 0 {
		return nil, fmt.Errorf("dnn: phase %q with %d tokens", phase, tokens)
	}
	p := &PhaseReport{Phase: phase, Tokens: tokens}
	layers := float64(r.Model.Layers)
	for i, sh := range r.Model.LayerGEMMs() {
		rep, scale, err := r.runGEMM(sh, tokens, r.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		p.GEMMPIM += rep.KernelSeconds * scale * layers
		p.Transfer += rep.Transfer * scale * layers
		p.Quantize += (rep.Host.Quantize + rep.Host.Dequant) * scale * layers
		p.SortPack += rep.Host.SortPack * scale * layers
		p.HostOps += int64(float64(rep.HostOps) * scale * layers)
		for c := range rep.Meter.Counts {
			p.Meter.Counts[c] += int64(float64(rep.Meter.Counts[c]) * scale * layers)
		}
	}
	hostFlops := (r.Model.attnFlops(tokens, ctx) + r.Model.hostElementwiseFlops(tokens)) * layers
	p.HostOther = hostFlops / r.Host.FlopsPerSec
	p.HostOps += int64(hostFlops)
	p.finalize()
	return p, nil
}

// ForwardTokens prices one forward pass over `tokens` activation columns
// whose attention spans a ctx-token context — the serving layer's entry
// point, where a batch packs requests of varying length so the token count
// is not a (batch x SeqLen) multiple. The report covers all transformer
// layers.
func (r *Runner) ForwardTokens(tokens, ctx int) (*PhaseReport, error) {
	return r.runPhase("forward", tokens, float64(ctx))
}

// Prefill runs the prompt phase for a batch of sequences.
func (r *Runner) Prefill(batch int) (*PhaseReport, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("dnn: batch %d", batch)
	}
	tokens := batch * r.Model.SeqLen
	return r.runPhase("prefill", tokens, float64(r.Model.SeqLen))
}

// DecodeStep prices exactly one autoregressive decode step: batch
// single-token queries, each attending over a ctx-token context (prompt
// plus everything generated so far). This is the serving simulator's
// per-step entry point; summing DecodeStep over a generation's growing
// contexts is the exact decode price that Decode reproduces in closed
// form.
func (r *Runner) DecodeStep(batch, ctx int) (*PhaseReport, error) {
	if !r.Model.Decoder {
		return nil, fmt.Errorf("dnn: %s is not a decoder model", r.Model.Name)
	}
	if batch <= 0 || ctx <= 0 {
		return nil, fmt.Errorf("dnn: batch %d ctx %d", batch, ctx)
	}
	return r.runPhase("decode", batch, float64(ctx))
}

// Decode runs outTokens autoregressive steps for a batch (decoder models
// only) from the model's configured prompt length.
func (r *Runner) Decode(batch, outTokens int) (*PhaseReport, error) {
	return r.DecodeFrom(batch, r.Model.SeqLen, outTokens)
}

// DecodeFrom prices outTokens autoregressive steps for a batch whose
// prompts are prompt tokens long. Step i (0-based) attends prompt+i keys;
// every per-step cost is either ctx-independent (the projections see only
// batch columns) or linear in ctx (host attention), so one step priced at
// the exact mean context prompt + (outTokens-1)/2 equals the sum over
// steps — validated against the step-summed DecodeStep price in tests.
func (r *Runner) DecodeFrom(batch, prompt, outTokens int) (*PhaseReport, error) {
	if !r.Model.Decoder {
		return nil, fmt.Errorf("dnn: %s is not a decoder model", r.Model.Name)
	}
	if batch <= 0 || prompt <= 0 || outTokens <= 0 {
		return nil, fmt.Errorf("dnn: batch %d prompt %d outTokens %d", batch, prompt, outTokens)
	}
	ctx := float64(prompt) + float64(outTokens-1)/2
	step, err := r.runPhase("decode", batch, ctx)
	if err != nil {
		return nil, err
	}
	// Scale one step to outTokens steps.
	out := &PhaseReport{Phase: "decode", Tokens: batch * outTokens}
	f := float64(outTokens)
	out.GEMMPIM = step.GEMMPIM * f
	out.Transfer = step.Transfer * f
	out.Quantize = step.Quantize * f
	out.SortPack = step.SortPack * f
	out.HostOther = step.HostOther * f
	out.HostOps = int64(float64(step.HostOps) * f)
	for c := range step.Meter.Counts {
		out.Meter.Counts[c] = int64(float64(step.Meter.Counts[c]) * f)
	}
	out.finalize()
	return out, nil
}

// InferenceReport is a full forward execution (prefill + optional decode).
type InferenceReport struct {
	Model   string
	Format  string
	Variant kernels.Variant
	Prefill *PhaseReport
	Decode  *PhaseReport // nil for encoder-only models
	Total   float64
	Meter   pim.Meter
	HostOps int64
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Infer runs prefill (and decode for decoder models) end to end.
func (r *Runner) Infer(batch, outTokens int) (*InferenceReport, error) {
	pre, err := r.Prefill(batch)
	if err != nil {
		return nil, err
	}
	rep := &InferenceReport{
		Model: r.Model.Name, Format: r.Fmt.Name(), Variant: r.Variant,
		Prefill: pre, Total: pre.Total, Meter: pre.Meter, HostOps: pre.HostOps,
	}
	if r.Model.Decoder && outTokens > 0 {
		dec, err := r.Decode(batch, outTokens)
		if err != nil {
			return nil, err
		}
		rep.Decode = dec
		rep.Total += dec.Total
		for c := range dec.Meter.Counts {
			rep.Meter.Counts[c] += dec.Meter.Counts[c]
		}
		rep.HostOps += dec.HostOps
	}
	return rep, nil
}
