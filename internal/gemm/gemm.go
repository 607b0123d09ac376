package gemm

import (
	"fmt"

	"github.com/ais-snu/localut/internal/costmodel"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// Engine bundles the machine configuration and cost tables. An engine is
// safe for concurrent use as long as its configuration fields are not
// mutated while runs are in flight (use Clone to vary them).
type Engine struct {
	Cfg   pim.Config
	Costs kernels.Costs
	Model costmodel.Model
	// HostOpsPerSec is the host's effective scalar throughput for the
	// quantize/sort/pack pipeline (multicore Xeon-class).
	HostOpsPerSec float64
	// Exec selects the host-side execution strategy (worker-pool size,
	// execution mode, verification scope).
	Exec ExecOptions
	// Decisions memoizes cost-model choices across runs, batch members and
	// bank shards. NewEngine sets it and Clone shares it.
	Decisions *costmodel.Cache
	// CostRecords memoizes the bank cost records every run is priced from,
	// across runs, batch members and modes (the key embeds the machine
	// config and cost table, so sharing it across Clone'd engines is safe).
	// NewEngine sets it and Clone shares it.
	CostRecords *CostMemo
	// arenas recycles per-worker execution contexts (DPU, kernel workspace,
	// tile storage) across runs, batch members and bank shards. Shared by
	// Clone'd engines; arenas rebind to each engine's Cfg on acquisition.
	arenas *arenaPool
	// refs memoizes the full reference product used to verify functional
	// full-grid runs, shared across the designs run on one pair.
	refs *refCache
}

// NewEngine returns an engine with the paper's testbed defaults.
func NewEngine() *Engine {
	return &Engine{
		Cfg:           pim.DefaultConfig(),
		Costs:         kernels.DefaultCosts(),
		Model:         costmodel.Default(),
		HostOpsPerSec: 2e10,
		Decisions:     costmodel.NewCache(),
		CostRecords:   NewCostMemo(),
		arenas:        &arenaPool{},
		refs:          &refCache{},
	}
}

// Options selects the design point and reporting detail for one GEMM.
type Options struct {
	// Variant picks the kernel design.
	Variant kernels.Variant
	// ForceP overrides the packing degree of the packed-LUT designs (0 =
	// cost-model choice).
	ForceP int
	// ForceK overrides LoCaLUT's slice batch (0 = cost-model choice; a
	// negative value is an error for every design).
	ForceK int
	// ForceStreaming forces LUT residence for the LoCaLUT variant when
	// ForceP is set: true = slice streaming even if the buffer would fit.
	ForceStreaming bool
	// ComputeFull additionally computes the full integer output on the
	// host reference (O(MKN) work — only for small shapes).
	ComputeFull bool
	// NSplitOnly uses the paper's context-parallel tiling (§V-B): split the
	// output columns across banks, and split M only where tileMMax forces
	// it, instead of the utilization-optimizing planner. Both tilings are
	// chosen in planGrid. The kernel figures (Figs. 9, 11, 12, 13, 16(b),
	// 17) set it through Suite.runGEMM; the model-driven figures and every
	// serving pass (dnn.Runner) leave it unset.
	NSplitOnly bool
}

// HostBreakdown itemizes host-side seconds (Fig. 16(a) categories).
type HostBreakdown struct {
	Quantize float64 // activation quantization
	SortPack float64 // canonicalize: sort, pack, rank (LUT variants)
	Dequant  float64 // output dequantization ("Others" in Fig. 16(a))
}

// Total sums the host phases.
func (h HostBreakdown) Total() float64 { return h.Quantize + h.SortPack + h.Dequant }

// Report describes one orchestrated GEMM execution.
type Report struct {
	Variant       kernels.Variant
	P             int
	K             int
	Streaming     bool
	GridM, GridN  int
	TileM, TileN  int
	Rounds        int // sequential passes when tiles exceed bank count
	KernelSeconds float64
	// KernelCycles is the simulated wall-clock cycle count behind
	// KernelSeconds (sum over rounds of the slowest bank per round). It is
	// exactly reproducible across host parallelism levels.
	KernelCycles int64
	// BanksSimulated counts the bank tiles in the verification scope, the
	// ones Functional mode simulates and verifies: every non-empty tile
	// under ExecOptions.FullGrid, 1 by default. Pricing covers the whole
	// grid either way.
	BanksSimulated int
	HostSeconds    float64
	Transfer       float64
	InitSeconds    float64 // LUT build/broadcast + weight staging (amortized)
	Total          float64 // host + transfer + kernel (steady state)
	Host           HostBreakdown
	HostOps        int64
	// Breakdown is the kernel cycles by phase, summed over every non-empty
	// bank tile of the grid.
	Breakdown kernels.Breakdown
	// Meter is the device events of every non-empty bank tile plus the
	// host<->PIM traffic; Meter.Cycles is the slowest bank's.
	Meter    pim.Meter
	Verified bool
	Output   []int32 // full output when Options.ComputeFull
}

// tileMMax bounds the per-bank weight-row count by the WRAM space left for
// the output column accumulator after the LUT budget and staging buffers.
func (e *Engine) tileMMax() int {
	slack := 8192 // metadata, weight chunks, staging
	avail := e.Cfg.WRAMBytes - int(e.Cfg.WRAMLUTBudget()) - slack
	if avail < 4 {
		return 1
	}
	return avail / 4
}

// planGrid picks the bank grid for a variant: N is split first (context
// parallelism, one or more columns per bank). Under the paper's tiling
// (nsplit) M is split only as far as tileMMax forces. Otherwise M-splitting
// trades bank utilization against per-tile fixed costs (WRAM LUT loads,
// slice reuse), so candidate grids, doubling from the fewest M-splits, are
// scored with a per-variant cycle estimate and the cheapest wall-clock
// wins. m, k and n must be positive.
func (e *Engine) planGrid(v kernels.Variant, nsplit bool, f quant.Format, m, k, n int) (gridM, gridN, rounds int) {
	dpus := e.Cfg.NumDPUs()
	gridN = min(n, dpus)
	tileN := (n + gridN - 1) / gridN
	maxTileM := e.tileMMax()
	minGridM := (m + maxTileM - 1) / maxTileM
	if nsplit {
		return minGridM, gridN, (minGridM*gridN + dpus - 1) / dpus
	}

	bestCost := 0.0
	for cand := minGridM; cand <= m; cand *= 2 {
		tileM := (m + cand - 1) / cand
		r := (cand*gridN + dpus - 1) / dpus
		cost := e.estimateTileCycles(v, f, tileM, k, tileN) * float64(r)
		if gridM == 0 || cost < bestCost {
			gridM, bestCost, rounds = cand, cost, r
		}
		if cand*gridN >= dpus {
			break // more splitting only adds rounds
		}
	}
	return gridM, gridN, rounds
}

// estimateTileCycles is a fast analytic per-tile kernel cycle estimate used
// only for grid planning; the real timing comes from simulation.
func (e *Engine) estimateTileCycles(v kernels.Variant, f quant.Format, tileM, k, tileN int) float64 {
	mnk := float64(tileM) * float64(k) * float64(tileN)
	dmaRate := e.Cfg.DMABytesPerCycle
	switch v {
	case kernels.Naive:
		return mnk * float64(e.Costs.NaiveMACInstr+e.Cfg.CyclesPerMul8)
	case kernels.LTC:
		g4 := float64((k + 3) / 4)
		bw := float64(f.Weight.Bits)
		build := float64(tileN) * g4 * 16 * float64(e.Costs.LTCTableBuildInstr)
		look := float64(tileM) * float64(tileN) * g4 * bw * float64(e.Costs.LTCGroupInstr)
		wdma := float64(tileM) * float64(tileN) * (bw*g4/2/dmaRate + float64(e.Cfg.DMASetupCycles))
		return build + look + wdma
	case kernels.OP, kernels.OPLC, kernels.OPLCRC:
		p := max(costmodel.MaxP(f, e.Cfg.WRAMLUTBudget(), v), 1)
		spec, err := lut.NewSpec(f, p)
		if err != nil {
			return mnk
		}
		perGroup := float64(e.Costs.OPGroupInstr)
		switch v {
		case kernels.OPLC:
			perGroup = float64(e.Costs.LCSWPerElement)*float64(p) + float64(e.Costs.LCSWGroupInstr)
		case kernels.OPLCRC:
			perGroup = float64(e.Costs.RCGroupInstr())
		}
		lutLoad := float64(kernels.TableBytes(v, spec)) / dmaRate
		groups := float64((k + p - 1) / p)
		return lutLoad + float64(tileM)*float64(tileN)*groups*perGroup
	case kernels.LoCaLUT:
		choice, err := e.Decisions.Choose(e.Model, f, tileM, k, tileN, &e.Cfg)
		if err != nil {
			return mnk
		}
		return choice.PredictedSeconds * e.Cfg.ClockHz
	}
	return mnk
}

// plan resolves the kernel for the report's tile shape and records its
// packing degree, residence and slice batch in rep. The packed-LUT designs
// share one path: a forced p or the cost model's, then one spec. Only
// LoCaLUT picks a residence and a slice batch (K is 1 when buffer-resident);
// the other designs report K = 0 and ignore ForceStreaming and ForceK.
func (e *Engine) plan(rep *Report, f quant.Format, k int, opt Options) (kernels.Kernel, lut.Spec, error) {
	v := opt.Variant
	if opt.ForceK < 0 {
		return nil, lut.Spec{}, fmt.Errorf("gemm: ForceK %d must not be negative", opt.ForceK)
	}
	switch v {
	case kernels.Naive:
		return kernels.NewNaiveKernel(e.Costs), lut.Spec{}, nil
	case kernels.LTC:
		return kernels.NewLTCKernel(e.Costs), lut.Spec{}, nil
	case kernels.OP, kernels.OPLC, kernels.OPLCRC, kernels.LoCaLUT:
	default:
		return nil, lut.Spec{}, fmt.Errorf("gemm: unknown variant %v", v)
	}
	var err error
	p, sliceK := opt.ForceP, opt.ForceK
	switch {
	case v != kernels.LoCaLUT:
		if p == 0 {
			p, err = e.Decisions.ChooseForVariant(f, v, &e.Cfg)
		}
	case p == 0:
		// The full design consults the cost model per shape (§V-A) and
		// falls back to the buffer-resident kernel when streaming loses.
		var c costmodel.Choice
		c, err = e.Decisions.Choose(e.Model, f, rep.TileM, k, rep.TileN, &e.Cfg)
		p, rep.Streaming = c.P, c.Streaming
		if sliceK == 0 {
			sliceK = c.K
		}
	default:
		rep.Streaming = opt.ForceStreaming
	}
	if err != nil {
		return nil, lut.Spec{}, err
	}
	spec, err := lut.NewSpec(f, p)
	if err != nil {
		return nil, lut.Spec{}, fmt.Errorf("gemm: ForceP %d: %w", p, err)
	}
	rep.P = p
	var kn kernels.Kernel
	switch {
	case v == kernels.OP:
		kn = kernels.NewOPKernel(e.Costs, spec)
	case v == kernels.OPLC:
		kn = kernels.NewOPLCKernel(e.Costs, spec)
	case v == kernels.OPLCRC:
		kn = kernels.NewOPLCRCKernel(e.Costs, spec)
	case rep.Streaming:
		if sliceK == 0 {
			sliceK = max(costmodel.MaxSliceK(spec, &e.Cfg), 1)
		}
		rep.K = sliceK
		kn = kernels.NewStreamKernel(e.Costs, spec, sliceK)
	default:
		rep.K = 1
		kn = kernels.NewBufferedKernel(e.Costs, spec)
	}
	return kn, spec, nil
}

// NewPair returns the synthetic M x K x N problem the engine's mode needs: a
// shape-only pair in CyclesOnly mode, where no kernel reads an operand (and
// drawing one would dominate the host cost), the seeded pair otherwise. It is
// the one place that decides whether synthetic operands exist, so a format
// too wide for tensor storage is an error only when operands are drawn.
func (e *Engine) NewPair(m, k, n int, f quant.Format, seed int64) (*workload.GEMMPair, error) {
	if e.Exec.Mode == kernels.CyclesOnly {
		return workload.NewShapePair(m, k, n, f), nil
	}
	return workload.MakeGEMMPair(m, k, n, f, seed)
}

// Run executes one GEMM on the simulated system.
func (e *Engine) Run(pair *workload.GEMMPair, opt Options) (*Report, error) {
	if pair.M <= 0 || pair.K <= 0 || pair.N <= 0 {
		return nil, fmt.Errorf("gemm: invalid GEMM shape %dx%dx%d", pair.M, pair.K, pair.N)
	}
	if err := e.Cfg.Validate(); err != nil {
		return nil, err
	}
	if pair.W == nil || pair.A == nil {
		// Shape-only pairs (workload.NewShapePair) carry no operand data;
		// only the cycles-only cost programs can run without it.
		if e.Exec.Mode != kernels.CyclesOnly {
			return nil, fmt.Errorf("gemm: shape-only pair requires cycles-only execution mode")
		}
		if opt.ComputeFull {
			return nil, fmt.Errorf("gemm: cannot compute the full output of a shape-only pair")
		}
	}
	gridM, gridN, rounds := e.planGrid(opt.Variant, opt.NSplitOnly, pair.Fmt, pair.M, pair.K, pair.N)
	tileM := (pair.M + gridM - 1) / gridM
	tileN := (pair.N + gridN - 1) / gridN

	rep := &Report{
		Variant: opt.Variant,
		GridM:   gridM, GridN: gridN, TileM: tileM, TileN: tileN, Rounds: rounds,
	}
	kn, spec, err := e.plan(rep, pair.Fmt, pair.K, opt)
	if err != nil {
		return nil, err
	}

	classes, err := e.priceGrid(pair, kn, rep)
	if err != nil {
		return nil, err
	}
	rep.BanksSimulated = 1
	if e.Exec.FullGrid {
		rep.BanksSimulated = classes.rM * classes.rN
	}
	if e.Exec.Mode == kernels.Functional {
		if err := e.verifyGrid(pair, kn, rep, classes, opt.ComputeFull); err != nil {
			return nil, err
		}
	}

	e.chargeHost(rep, pair, opt.Variant)
	e.chargeTransfers(rep, pair, spec, opt.Variant, gridM, gridN)
	e.chargeInit(rep, pair, spec, opt.Variant, gridN)

	rep.Total = rep.HostSeconds + rep.Transfer + rep.KernelSeconds

	if opt.ComputeFull && rep.Output == nil {
		full, err := fullTile(pair)
		if err != nil {
			return nil, err
		}
		rep.Output = kernels.RefGEMM(full)
	}
	return rep, nil
}

func fullTile(pair *workload.GEMMPair) (*kernels.Tile, error) {
	return kernels.NewTile(pair.M, pair.K, pair.N, pair.Fmt, pair.W.Codes, pair.A.Codes)
}

// hostOp charges n scalar host operations and returns their seconds.
func (e *Engine) hostSeconds(n int64) float64 { return float64(n) / e.HostOpsPerSec }

// chargeHost accounts the online host pipeline: activation quantization,
// canonicalization (sort + pack + rank) for LUT variants, and output
// dequantization. Weight-side preparation is offline (chargeInit).
func (e *Engine) chargeHost(rep *Report, pair *workload.GEMMPair, v kernels.Variant) {
	actElems := int64(pair.K) * int64(pair.N)
	outElems := int64(pair.M) * int64(pair.N)

	quantOps := actElems * 2 // scale-divide + round per activation
	var sortOps int64
	switch v {
	case kernels.Naive:
		// int8 decode only.
		sortOps = actElems
	case kernels.LTC:
		// int8 decode + per-column sum.
		sortOps = actElems * 2
	case kernels.OP:
		// pack p codes per group.
		sortOps = actElems * 2
	default:
		// Canonicalization: sort p elements (~p log p compares+swaps),
		// pack, multiset-rank and Lehmer-rank per group: ~6 ops/element.
		sortOps = actElems * 6
	}
	dequantOps := outElems * 2

	rep.Host = HostBreakdown{
		Quantize: e.hostSeconds(quantOps),
		SortPack: e.hostSeconds(sortOps),
		Dequant:  e.hostSeconds(dequantOps),
	}
	rep.HostOps = quantOps + sortOps + dequantOps
	rep.HostSeconds = rep.Host.Total()
}

// actBytesPerColumn returns the per-column activation payload each bank
// receives under the variant's staging format (spec is zero for Naive and
// LTC).
func actBytesPerColumn(spec lut.Spec, K int, v kernels.Variant) int64 {
	switch v {
	case kernels.Naive:
		return int64(K)
	case kernels.LTC:
		return int64(K) + 4
	}
	g := int64((K + spec.P - 1) / spec.P)
	return g * int64(kernels.MetaRecordBytes(v, spec))
}

// chargeTransfers accounts the steady-state host<->PIM traffic: activation
// metadata scattered to the N-stripes, its replication to the gridM
// M-stripes (identical payloads, shipped with UPMEM's rank-symmetric
// broadcast), and the output gather.
func (e *Engine) chargeTransfers(rep *Report, pair *workload.GEMMPair, spec lut.Spec, v kernels.Variant, gridM, gridN int) {
	unique := actBytesPerColumn(spec, pair.K, v) * int64(pair.N)
	outBytes := int64(pair.M) * int64(pair.N) * 4
	rep.Transfer = float64(unique)/e.Cfg.HostToPIMBW + float64(outBytes)/e.Cfg.PIMToHostBW
	if gridM > 1 {
		rep.Transfer += float64(unique) / e.Cfg.HostBroadcastBW
	}
	rep.Meter.Counts[pim.EvHostToPIM] += unique * int64(min(gridM, 2))
	rep.Meter.Counts[pim.EvPIMToHost] += outBytes
}

// chargeInit accounts one-time per-layer setup: LUT construction on the
// host, LUT broadcast to all banks, and weight staging (weights are
// replicated across the gridN column stripes; Naive and LTC, whose spec is
// zero, stage one byte per weight).
func (e *Engine) chargeInit(rep *Report, pair *workload.GEMMPair, spec lut.Spec, v kernels.Variant, gridN int) {
	lutBytes := kernels.TableBytes(v, spec)
	p := max(spec.P, 1)
	wBytes := int64(pair.M) * int64((pair.K+p-1)/p)
	// Weight tiles are identical across the gridN column stripes, so their
	// replication also rides the broadcast path.
	wXfer := float64(wBytes) / e.Cfg.HostToPIMBW
	if gridN > 1 {
		wXfer += float64(wBytes) / e.Cfg.HostBroadcastBW
	}
	rep.InitSeconds = e.hostSeconds(lutBytes*2) + // host-side table fill
		float64(lutBytes)/e.Cfg.HostBroadcastBW + wXfer
}
