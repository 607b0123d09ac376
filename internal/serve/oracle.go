package serve

import (
	"fmt"
	"math"

	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/energy"
	"github.com/ais-snu/localut/internal/kernels"
)

// batchCost is the priced outcome of one batched forward pass.
type batchCost struct {
	seconds float64 // end-to-end service seconds (host + transfer + PIM)
	pimSec  float64 // PIM kernel share of seconds
	energyJ float64 // priced energy of the pass
}

// costKey identifies one distinct forward-pass shape: the two dimensions
// packed into one word, so the memo maps take the runtime's 64-bit-key path
// instead of hashing a 16-byte struct on every priced pass.
type costKey uint64

// newCostKey packs a shape. Each dimension must fit in 31 bits; a shape
// outside that range is an error, never a key that collides with another.
func newCostKey(a, b int) (costKey, error) {
	if a < 0 || a > math.MaxInt32 || b < 0 || b > math.MaxInt32 {
		return 0, fmt.Errorf("serve: forward-pass shape (%d, %d) outside the oracle's range", a, b)
	}
	return costKey(a)<<32 | costKey(b), nil
}

// Oracle prices batched forward passes through the dnn/gemm planners in
// cycles-only mode and memoizes per shape. Replica scaling happens here:
// the runner's engine is a clone of the appliance engine with its rank
// count divided by the replica count, so each replica's forward pass sees
// only its share of banks.
type Oracle struct {
	runner *dnn.Runner
	energy energy.Model

	prefill map[costKey]batchCost
	step    map[costKey]batchCost // key: (live batch size, ctx bucket)
}

// NewOracle builds the pricing path for one serving run. A fleet of
// identical appliances may share one Oracle (from a single event loop):
// each distinct forward-pass shape is then planned once per fleet.
func NewOracle(cfg *Config) *Oracle {
	eng := cfg.Engine.Clone()
	eng.Exec.Mode = kernels.CyclesOnly
	ranks := eng.Cfg.Ranks / cfg.Replicas
	if ranks < 1 {
		ranks = 1
	}
	eng.Cfg.Ranks = ranks

	r := dnn.NewRunner(cfg.Model, cfg.Fmt, cfg.Variant)
	r.Engine = eng
	r.Seed = cfg.Seed
	return &Oracle{
		runner:  r,
		energy:  cfg.Energy,
		prefill: make(map[costKey]batchCost),
		step:    make(map[costKey]batchCost),
	}
}

// price converts a phase report to a batchCost.
func (o *Oracle) price(p *dnn.PhaseReport) batchCost {
	e := o.energy.Price(&p.Meter, p.HostOps, p.Total)
	return batchCost{seconds: p.Total, pimSec: p.GEMMPIM, energyJ: e.TotalJ}
}

// batch prices one prefill pass: `tokens` padded prompt tokens attending
// over a ctx-token context. Misses run the planners; hits are map lookups.
func (o *Oracle) batch(tokens, ctx int) (batchCost, error) {
	key, err := newCostKey(tokens, ctx)
	if err != nil {
		return batchCost{}, err
	}
	cost, ok := o.prefill[key]
	if !ok {
		rep, err := o.runner.ForwardTokens(tokens, ctx)
		if err != nil {
			return batchCost{}, err
		}
		cost = o.price(rep)
		o.prefill[key] = cost
	}
	return cost, nil
}

// decodeStep prices one token-level decode step: n single-token queries
// attending over a ctx-token context. Callers bucket ctx (round up to the
// token quantum) before keying, so the step map — and with it
// DistinctForwardSims — stays bounded by batch-size x context-bucket
// combinations however long the generations run.
func (o *Oracle) decodeStep(n, ctx int) (batchCost, error) {
	key, err := newCostKey(n, ctx)
	if err != nil {
		return batchCost{}, err
	}
	cost, ok := o.step[key]
	if !ok {
		rep, err := o.runner.DecodeStep(n, ctx)
		if err != nil {
			return batchCost{}, err
		}
		cost = o.price(rep)
		o.step[key] = cost
	}
	return cost, nil
}

// DistinctSims counts the planner executions the whole run needed.
func (o *Oracle) DistinctSims() int { return len(o.prefill) + len(o.step) }
