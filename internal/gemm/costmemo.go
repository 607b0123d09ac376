package gemm

import (
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/stripemap"
)

// Cycles-only kernel runs are pure functions of (machine config, cost table,
// design point, tile shape): no data flows through them, so two banks with
// identical-shaped tiles produce bit-identical cycles, meters and
// breakdowns. CostMemo memoizes those records the way costmodel.Cache
// memoizes §IV-D decisions — a full-grid sweep over thousands of banks pays
// for at most a handful of distinct edge shapes, and a serving workload
// replaying the same layer shapes pays once per shape for the whole run.
//
// The key embeds the pim.Config and kernels.Costs values outright (both are
// flat comparable structs), so a memo shared across Clone'd engines with
// different configurations stays correct.

// costKey identifies one cycles-only kernel execution.
type costKey struct {
	cfg       pim.Config
	costs     kernels.Costs
	variant   kernels.Variant
	fmt       quant.Format
	p         int
	sliceK    int
	streaming bool
	m, k, n   int
}

// costRecord is the reusable outcome of one cycles-only bank execution.
type costRecord struct {
	cycles    int64
	meter     pim.Meter
	breakdown kernels.Breakdown
}

// CostMemo memoizes cycles-only bank cost records in a lock-striped map
// (internal/stripemap): every worker of a high -j serving or sweep run
// consults the memo on its hot path, and striping by key hash keeps them
// off one mutex cacheline. Striping is invisible to results — each record
// is a pure function of its key. The zero value is not ready; use
// NewCostMemo. All methods are safe for concurrent use.
type CostMemo struct {
	recs *stripemap.Map[costKey, costRecord]
}

// NewCostMemo returns an empty memo.
func NewCostMemo() *CostMemo {
	return &CostMemo{recs: stripemap.New[costKey, costRecord](hashCostKey)}
}

// hashCostKey mixes the key's shape and design fields — the ones that
// differ between concurrent lookups.
func hashCostKey(key costKey) uint64 {
	return uint64(key.m)*0x9E3779B185EBCA87 ^
		uint64(key.k)*0xC2B2AE3D27D4EB4F ^
		uint64(key.n)*0x165667B19E3779F9 ^
		uint64(key.variant)<<17 ^ uint64(key.p)<<9 ^ uint64(key.sliceK)<<3
}

// lookup returns the memoized record for the key.
func (c *CostMemo) lookup(key costKey) (costRecord, bool) {
	return c.recs.Lookup(key)
}

// store records the outcome for the key.
func (c *CostMemo) store(key costKey, rec costRecord) {
	c.recs.Store(key, rec)
}

// Stats reports hit/miss counts (diagnostics and tests).
func (c *CostMemo) Stats() (hits, misses int64) {
	return c.recs.Stats()
}

// costKeyFor assembles the memo key for one bank tile of the current run.
func (e *Engine) costKeyFor(rep *Report, f quant.Format, m, k, n int) costKey {
	return costKey{
		cfg: e.Cfg, costs: e.Costs,
		variant: rep.Variant, fmt: f,
		p: rep.P, sliceK: rep.K, streaming: rep.Streaming,
		m: m, k: k, n: n,
	}
}

// runCost executes the kernel's cost program for an m x k x n tile on an
// accounting DPU, routing through the engine's memo.
func (e *Engine) runCost(kn kernels.Kernel, rep *Report, f quant.Format, m, k, n int) (costRecord, error) {
	key := e.costKeyFor(rep, f, m, k, n)
	if rec, ok := e.CostRecords.lookup(key); ok {
		return rec, nil
	}
	tile, err := kernels.NewShapeTile(m, k, n, f)
	if err != nil {
		return costRecord{}, err
	}
	dpu := pim.NewAccountingDPU(&e.Cfg)
	res, err := kn.Run(dpu, tile)
	if err != nil {
		return costRecord{}, err
	}
	rec := costRecord{cycles: res.Cycles, meter: dpu.Meter, breakdown: res.Breakdown}
	e.CostRecords.store(key, rec)
	return rec, nil
}
