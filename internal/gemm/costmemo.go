package gemm

import (
	"sync"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// Cycles-only kernel runs are pure functions of (machine config, cost table,
// design point, tile shape): no data flows through them, so two banks with
// identical-shaped tiles produce bit-identical cycles, meters and
// breakdowns. CostMemo memoizes those records the way costmodel.Cache
// memoizes §IV-D decisions: a GEMM is priced by at most four tile classes,
// and a serving workload replaying the same layer shapes pays once per
// shape for the whole run.
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

// CostMemo memoizes cycles-only bank cost records under one mutex. Each
// record is a pure function of its key, so whichever caller stores a key
// first, every later reader gets the same record. The zero value is not
// ready; use NewCostMemo. All methods are safe for concurrent use.
type CostMemo struct {
	mu           sync.Mutex
	recs         map[costKey]costRecord
	hits, misses int64
}

// NewCostMemo returns an empty memo.
func NewCostMemo() *CostMemo {
	return &CostMemo{recs: make(map[costKey]costRecord)}
}

// lookup returns the memoized record for the key, counting a hit or miss.
func (c *CostMemo) lookup(key costKey) (costRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rec, ok
}

// store records the outcome for the key.
func (c *CostMemo) store(key costKey, rec costRecord) {
	c.mu.Lock()
	c.recs[key] = rec
	c.mu.Unlock()
}

// Stats reports hit/miss counts (diagnostics and tests).
func (c *CostMemo) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
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
