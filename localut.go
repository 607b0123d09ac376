// Package localut is a Go implementation of LoCaLUT (HPCA 2026):
// lookup-table-based low-bit quantized DNN inference for DRAM
// processing-in-memory, built on a cycle-approximate UPMEM-class simulator.
//
// The library exposes the paper's full pipeline:
//
//   - quantization of float tensors into the WxAy low-bit formats;
//   - construction of operation-packed, canonical and reordering LUTs with
//     their capacity laws (the capacity-computation tradeoff of §III);
//   - the §IV-D cost model that picks the packing degree p, the LUT
//     residence (buffer vs DRAM bank with slice streaming) and the slice
//     batch k;
//   - GEMM execution across a simulated 2048-bank PIM system under six
//     designs (NaivePIM, LTC, OP, OP+LC, OP+LC+RC, LoCaLUT), each verified
//     bit-exact against an integer reference on every run;
//   - end-to-end transformer inference (BERT-base, OPT-125M, ViT-Base)
//     with the host/PIM split of Fig. 8;
//   - request-level serving simulation (System.Serve): a deterministic
//     discrete-event traffic engine with seeded arrivals, batching
//     schedulers and SLO metrics, priced through the cycles-only backend.
//
// Quick start:
//
//	sys := localut.NewSystem()
//	res, err := sys.GEMM(localut.W1A3, 768, 768, 128, localut.DesignLoCaLUT)
//	fmt.Printf("%.3f ms, verified=%v\n", res.TotalSeconds*1e3, res.Verified)
package localut

import (
	"fmt"

	"github.com/ais-snu/localut/internal/costmodel"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/energy"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// Format is a weight/activation quantization pairing ("WxAy").
type Format struct {
	inner quant.Format
}

// The four formats of the paper's evaluation.
var (
	W1A3 = Format{quant.W1A3}
	W1A4 = Format{quant.W1A4}
	W2A2 = Format{quant.W2A2}
	W4A4 = Format{quant.W4A4}
)

// Formats lists the evaluation formats in paper order.
var Formats = []Format{W1A3, W1A4, W2A2, W4A4}

// NewFormat builds a WxAy format with the paper's codec conventions
// (1-bit weights are ±1; wider weights are symmetric-clipped two's
// complement; activations are two's complement).
func NewFormat(weightBits, actBits int) (Format, error) {
	f, err := quant.NewFormat(weightBits, actBits)
	if err != nil {
		return Format{}, err
	}
	return Format{f}, nil
}

// ParseFormat parses "W1A3"-style names.
func ParseFormat(s string) (Format, error) {
	f, err := quant.ParseFormat(s)
	if err != nil {
		return Format{}, err
	}
	return Format{f}, nil
}

// Name returns "WxAy".
func (f Format) Name() string { return f.inner.Name() }

// WeightBits and ActBits report the bit widths.
func (f Format) WeightBits() int { return f.inner.Weight.Bits }
func (f Format) ActBits() int    { return f.inner.Act.Bits }

// Design selects one of the paper's kernel design points.
type Design int

const (
	// DesignNaive is conventional PIM with arithmetic units.
	DesignNaive Design = iota
	// DesignLTC is the LUT Tensor Core bit-serial adaptation.
	DesignLTC
	// DesignOP is the buffer-resident operation-packed LUT.
	DesignOP
	// DesignOPLC adds LUT canonicalization (software reordering).
	DesignOPLC
	// DesignOPLCRC adds the reordering LUT.
	DesignOPLCRC
	// DesignLoCaLUT is the full system with LUT slice streaming.
	DesignLoCaLUT
)

// Designs lists all design points in paper order.
var Designs = []Design{DesignNaive, DesignLTC, DesignOP, DesignOPLC, DesignOPLCRC, DesignLoCaLUT}

func (d Design) variant() kernels.Variant { return kernels.Variant(d) }

// String returns the paper's name for the design.
func (d Design) String() string { return d.variant().String() }

// Capacity describes the LUT footprints of a (format, p) configuration —
// the Fig. 6 quantities.
type Capacity struct {
	P                   int
	OperationPackedByte int64
	CanonicalBytes      int64
	ReorderBytes        int64
	CombinedBytes       int64
	// ReductionRate is operation-packed / (canonical + reordering).
	ReductionRate float64
	// SliceBytes is one streamed canonical+reordering column pair.
	SliceBytes int64
}

// LUTCapacity evaluates the capacity laws for a format and packing degree.
func LUTCapacity(f Format, p int) (Capacity, error) {
	spec, err := lut.NewSpec(f.inner, p)
	if err != nil {
		return Capacity{}, err
	}
	return Capacity{
		P:                   p,
		OperationPackedByte: spec.OpPackedBytes(),
		CanonicalBytes:      spec.CanonicalBytes(),
		ReorderBytes:        spec.ReorderBytes(),
		CombinedBytes:       spec.CombinedBytes(),
		ReductionRate:       spec.ReductionRate(),
		SliceBytes:          spec.SliceBytes(),
	}, nil
}

// Plan is the configuration a LoCaLUT GEMM runs at (§IV-D) and its price.
// PLocal and PDRAM are the largest packing degrees whose tables fit the
// buffer and the bank LUT budgets.
type Plan struct {
	P                int
	Streaming        bool
	SliceK           int
	PredictedSeconds float64
	PLocal, PDRAM    int
}

// System is a simulated LoCaLUT PIM server.
type System struct {
	engine *gemm.Engine
	energy energy.Model
	seed   int64
}

// Option configures a System.
type Option func(*System)

// WithSeed fixes the synthetic workload seed.
func WithSeed(seed int64) Option { return func(s *System) { s.seed = seed } }

// WithRanks overrides the PIM DIMM rank count (default 32 -> 2048 banks).
func WithRanks(ranks int) Option {
	return func(s *System) { s.engine.Cfg.Ranks = ranks }
}

// WithParallelism sets the host-side worker-pool size used for sharded
// bank simulation and batched GEMMs (0 = one worker per CPU core, 1 =
// serial). Simulation results are bit-identical at any setting: shard→bank
// assignment is deterministic and all aggregation happens in bank order.
func WithParallelism(n int) Option {
	return func(s *System) { s.engine.Exec.Parallelism = n }
}

// WithFullBankSimulation widens verification from bank (0,0) to every bank
// tile of each GEMM: each tile is simulated (sharded across the worker
// pool) and verified bit-exact, and full outputs come from the simulated
// banks, at the price of simulating the whole problem. Timing, events and
// energy do not change: every GEMM is priced from its grid's tile classes,
// edge tiles at their true cost, with or without this option.
func WithFullBankSimulation() Option {
	return func(s *System) { s.engine.Exec.FullGrid = true }
}

// WithCyclesOnly switches the system to the analytic cycles-only execution
// backend: kernels charge the exact same cycle/event sequence as functional
// simulation — timing, meters, breakdowns and energy are bit-identical —
// but move no bytes, build no LUT images and compute no GEMM outputs.
// Identical-shape bank tiles share one memoized cost record, so sweeps and
// serving workloads that only consume timing run orders of magnitude
// faster. Results report Verified=false (there is no output to check) and
// Output stays nil unless WithFullOutput computes the host reference.
func WithCyclesOnly() Option {
	return func(s *System) { s.engine.Exec.Mode = kernels.CyclesOnly }
}

// WithLUTBudget sets the fraction of each bank and buffer devoted to LUTs
// (default ~0.55, §V-A "approximately half"). §VII-B discusses shrinking
// this when capacity is shared with large models or co-located jobs: a
// smaller budget lowers the feasible packing degree and trades speed for
// memory — ChoosePlan and every GEMM respect it.
func WithLUTBudget(frac float64) Option {
	return func(s *System) { s.engine.Cfg.LUTBudgetFrac = frac }
}

// NewSystem builds the paper's testbed: 32 UPMEM ranks (2048 DPUs, 64 MB
// bank + 64 KB WRAM + 350 MHz core each).
func NewSystem(opts ...Option) *System {
	s := &System{engine: gemm.NewEngine(), energy: energy.Default(), seed: 1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// ChoosePlan reports the plan GEMM runs for a LoCaLUT GEMM of this shape
// under the same options: the §V-B tiling, then the §IV-D cost model on each
// bank tile. It prices the GEMM in cycles-only mode, so PredictedSeconds is
// the TotalSeconds that GEMM reports, in either mode.
func (s *System) ChoosePlan(f Format, m, k, n int, opts ...GEMMOption) (Plan, error) {
	o := gemmOptions(DesignLoCaLUT, opts)
	o.ComputeFull = false
	e := s.engine.Clone()
	e.Exec.Mode = kernels.CyclesOnly
	rep, err := e.Run(workload.NewShapePair(m, k, n, f.inner), o)
	if err != nil {
		return Plan{}, err
	}
	return Plan{P: rep.P, Streaming: rep.Streaming, SliceK: rep.K, PredictedSeconds: rep.Total,
		PLocal: costmodel.MaxP(f.inner, e.Cfg.WRAMLUTBudget(), kernels.LoCaLUT),
		PDRAM:  costmodel.MaxP(f.inner, e.Cfg.MRAMLUTBudget(), kernels.LoCaLUT)}, nil
}

// GEMMResult reports one executed GEMM.
type GEMMResult struct {
	Design        Design
	P, SliceK     int
	Streaming     bool
	TotalSeconds  float64
	KernelSeconds float64
	HostSeconds   float64
	Transfer      float64
	EnergyJ       float64
	// Verified reports that the simulated kernel's tile output matched
	// the integer reference bit-exactly (checked on every run).
	Verified bool
	// KernelCycles is the simulated PIM wall-clock cycle count; it is
	// exactly reproducible across host parallelism levels.
	KernelCycles int64
	// BanksSimulated counts the bank tiles in the verification scope (every
	// non-empty tile under WithFullBankSimulation, 1 by default); pricing
	// covers the whole grid either way.
	BanksSimulated int
	// Output is the full integer product when requested.
	Output []int32
}

// GEMMOption tweaks one GEMM run.
type GEMMOption func(*gemm.Options)

// WithPackingDegree forces p instead of the cost-model choice.
func WithPackingDegree(p int) GEMMOption { return func(o *gemm.Options) { o.ForceP = p } }

// WithSliceK forces the slice batch.
func WithSliceK(k int) GEMMOption { return func(o *gemm.Options) { o.ForceK = k } }

// WithStreaming forces DRAM-resident LUTs with slice streaming (only
// meaningful together with WithPackingDegree).
func WithStreaming() GEMMOption { return func(o *gemm.Options) { o.ForceStreaming = true } }

// WithFullOutput computes the complete integer product (O(MKN) host work).
func WithFullOutput() GEMMOption { return func(o *gemm.Options) { o.ComputeFull = true } }

// WithPaperTiling uses the paper's context-parallel tiling (§V-B): N is
// split across banks, M only where the buffer's accumulator forces it.
func WithPaperTiling() GEMMOption { return func(o *gemm.Options) { o.NSplitOnly = true } }

// GEMM generates a seeded synthetic M x K x N problem in the format and
// executes it under the design.
func (s *System) GEMM(f Format, m, k, n int, d Design, opts ...GEMMOption) (*GEMMResult, error) {
	o := gemmOptions(d, opts)
	pair, err := s.syntheticPair(f, m, k, n, s.seed, o.ComputeFull)
	if err != nil {
		return nil, err
	}
	return s.run(pair, d, o)
}

// syntheticPair builds the seeded problem of GEMM and GEMMBatch: whatever the
// engine's mode needs (nothing but the shape under WithCyclesOnly), except
// that WithFullOutput needs operands to multiply in either mode. A format
// too wide for tensor storage is an error whenever operands are drawn.
func (s *System) syntheticPair(f Format, m, k, n int, seed int64, fullOutput bool) (*workload.GEMMPair, error) {
	if fullOutput {
		return workload.MakeGEMMPair(m, k, n, f.inner, seed)
	}
	return s.engine.NewPair(m, k, n, f.inner, seed)
}

// GEMMQuantized executes a GEMM on caller-provided quantized tensors.
// Weights are M x K codes row-major; activations K x N.
func (s *System) GEMMQuantized(w, a *Tensor, d Design, opts ...GEMMOption) (*GEMMResult, error) {
	if w.t.Cols != a.t.Rows {
		return nil, fmt.Errorf("localut: W is %dx%d but A is %dx%d",
			w.t.Rows, w.t.Cols, a.t.Rows, a.t.Cols)
	}
	f := quant.Format{Weight: w.t.Codec, Act: a.t.Codec}
	pair := &workload.GEMMPair{M: w.t.Rows, K: w.t.Cols, N: a.t.Cols,
		Fmt: f, W: w.t, A: a.t}
	return s.run(pair, d, gemmOptions(d, opts))
}

func (s *System) run(pair *workload.GEMMPair, d Design, o gemm.Options) (*GEMMResult, error) {
	rep, err := s.engine.Run(pair, o)
	if err != nil {
		return nil, err
	}
	return s.result(d, rep), nil
}

// gemmOptions folds the functional options into the engine's option struct.
func gemmOptions(d Design, opts []GEMMOption) gemm.Options {
	var o gemm.Options
	for _, fn := range opts {
		fn(&o)
	}
	o.Variant = d.variant()
	return o
}

// result converts an engine report, pricing its energy.
func (s *System) result(d Design, rep *gemm.Report) *GEMMResult {
	e := s.energy.Price(&rep.Meter, rep.HostOps, rep.Total)
	return &GEMMResult{
		Design: d, P: rep.P, SliceK: rep.K, Streaming: rep.Streaming,
		TotalSeconds: rep.Total, KernelSeconds: rep.KernelSeconds,
		HostSeconds: rep.HostSeconds, Transfer: rep.Transfer,
		EnergyJ: e.TotalJ, Verified: rep.Verified,
		KernelCycles: rep.KernelCycles, BanksSimulated: rep.BanksSimulated,
		Output: rep.Output,
	}
}

// GEMMShape is one member of a batched GEMM call.
type GEMMShape struct {
	M, K, N int
}

// GEMMBatch generates a seeded synthetic problem per shape and executes the
// batch under the design. Batching is how a serving workload should drive
// the simulator: cost-model decisions are memoized across members (layers
// of one model repeat a handful of shapes), LUT construction is shared
// through the process-wide table cache, and members are dispatched
// concurrently over the worker pool configured with WithParallelism.
// Member i's workload uses seed+i, so its result is identical to a GEMM
// call on a System constructed with WithSeed(seed+i).
func (s *System) GEMMBatch(f Format, shapes []GEMMShape, d Design, opts ...GEMMOption) ([]*GEMMResult, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("localut: empty GEMM batch")
	}
	o := gemmOptions(d, opts)
	pairs := make([]*workload.GEMMPair, len(shapes))
	for i, sh := range shapes {
		p, err := s.syntheticPair(f, sh.M, sh.K, sh.N, s.seed+int64(i), o.ComputeFull)
		if err != nil {
			return nil, err
		}
		pairs[i] = p
	}
	reps, err := s.engine.RunBatch(pairs, o)
	if err != nil {
		return nil, err
	}
	out := make([]*GEMMResult, len(reps))
	for i, rep := range reps {
		out[i] = s.result(d, rep)
	}
	return out, nil
}

// Tensor is a quantized 2-D tensor.
type Tensor struct {
	t *quant.Tensor
}

// Side selects which codec of a format quantizes a tensor.
type Side int

const (
	// Weights quantizes with the weight codec.
	Weights Side = iota
	// Activations quantizes with the activation codec.
	Activations
)

// Quantize converts row-major float data to low-bit codes under the
// format's codec for the given side, with calibrated scaling (mean-|v| for
// binary weights, MSE-optimal Gaussian clipping for wider codecs — the
// conventions of the quantization methods the paper evaluates with).
func Quantize(data []float64, rows, cols int, f Format, side Side) (*Tensor, error) {
	codec := f.inner.Weight
	if side == Activations {
		codec = f.inner.Act
	}
	t, err := quant.QuantizeCalibrated(data, rows, cols, codec)
	if err != nil {
		return nil, err
	}
	return &Tensor{t}, nil
}

// Shape returns (rows, cols).
func (t *Tensor) Shape() (rows, cols int) { return t.t.Rows, t.t.Cols }

// Scale returns the dequantization scale.
func (t *Tensor) Scale() float64 { return t.t.Scale }

// Dequantize expands back to floats.
func (t *Tensor) Dequantize() []float64 { return t.t.Dequantize() }

// Model identifies a built-in transformer workload.
type Model int

const (
	// BERTBase is the 12-layer encoder (110M parameters, seq 128).
	BERTBase Model = iota
	// OPT125M is the 12-layer decoder (prefill + autoregressive decode).
	OPT125M
	// ViTBase is the vision transformer (197 tokens).
	ViTBase
)

func (m Model) config() (dnn.ModelConfig, error) {
	switch m {
	case BERTBase:
		return dnn.BERTBase(), nil
	case OPT125M:
		return dnn.OPT125M(), nil
	case ViTBase:
		return dnn.ViTBase(), nil
	}
	return dnn.ModelConfig{}, fmt.Errorf("localut: unknown model %d", int(m))
}

// String names the model ("Model(9)" for a value outside the built-in set).
func (m Model) String() string {
	c, err := m.config()
	if err != nil {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return c.Name
}

// modelAndFormat resolves the model and format an end-to-end entry point was
// handed, so a value outside the built-in models or the zero Format is an
// error at the call, not a failure deep inside the first kernel.
func modelAndFormat(m Model, f Format) (dnn.ModelConfig, quant.Format, error) {
	mc, err := m.config()
	if err != nil {
		return mc, f.inner, err
	}
	if f.inner.Weight.Bits == 0 || f.inner.Act.Bits == 0 {
		return mc, f.inner, fmt.Errorf("localut: zero Format (use W1A3..W4A4, NewFormat or ParseFormat)")
	}
	return mc, f.inner, nil
}

// PhaseTimes itemizes one inference phase (the Fig. 16(a) categories).
type PhaseTimes struct {
	GEMMPIM   float64
	Transfer  float64
	Quantize  float64
	SortPack  float64
	HostOther float64
	Total     float64
}

// InferenceResult reports an end-to-end model execution.
type InferenceResult struct {
	Model   string
	Format  string
	Design  Design
	Prefill PhaseTimes
	// Decode is non-zero only for decoder models with OutTokens > 0.
	Decode       PhaseTimes
	TotalSeconds float64
	EnergyJ      float64
}

// InferOptions configures an end-to-end run.
type InferOptions struct {
	// Batch is the number of sequences (default 8).
	Batch int
	// OutTokens is the decode length for decoder models (default 0).
	OutTokens int
}

// Infer runs a transformer end to end on the simulated system: all
// projection/FFN GEMMs on PIM under the design, attention/normalization on
// the host (Fig. 8).
func (s *System) Infer(m Model, f Format, d Design, opt InferOptions) (*InferenceResult, error) {
	if opt.Batch == 0 {
		opt.Batch = 8
	}
	mc, qf, err := modelAndFormat(m, f)
	if err != nil {
		return nil, err
	}
	r := dnn.NewRunner(mc, qf, d.variant())
	r.Engine = s.engine
	r.Seed = s.seed
	rep, err := r.Infer(opt.Batch, opt.OutTokens)
	if err != nil {
		return nil, err
	}
	e := s.energy.Price(&rep.Meter, rep.HostOps, rep.Total)
	out := &InferenceResult{
		Model: rep.Model, Format: rep.Format, Design: d,
		Prefill:      phaseTimes(rep.Prefill),
		TotalSeconds: rep.Total,
		EnergyJ:      e.TotalJ,
	}
	if rep.Decode != nil {
		out.Decode = phaseTimes(rep.Decode)
	}
	return out, nil
}

func phaseTimes(p *dnn.PhaseReport) PhaseTimes {
	return PhaseTimes{
		GEMMPIM: p.GEMMPIM, Transfer: p.Transfer, Quantize: p.Quantize,
		SortPack: p.SortPack, HostOther: p.HostOther, Total: p.Total,
	}
}
