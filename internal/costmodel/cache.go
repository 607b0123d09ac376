package costmodel

import (
	"sync"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// The §IV-D selection runs once per GEMM shape at initialization (§V-A), but
// a serving workload replays the same handful of shapes millions of times:
// every transformer layer, every batch member and every bank tile of one
// layer share a (format, shape, budget) key. Cache memoizes the decision so
// batched execution pays for the packing-degree search once.
//
// A decision depends only on the model constants, the format, the shape and
// the two LUT byte budgets, all of which are part of the key, so a cache can
// be shared between engines with different machine configurations (and
// between the shards of a parallel run — all methods are safe for concurrent
// use). One mutex guards both maps and the hit/miss counters; each entry is
// a pure function of its key, so the order in which callers store them
// cannot perturb results.

// choiceKey identifies one Choose decision.
type choiceKey struct {
	model Model
	fmt   quant.Format
	m     int
	k     int
	n     int
	wram  int64
	mram  int64
}

// variantKey identifies one ChooseForVariant decision.
type variantKey struct {
	fmt  quant.Format
	v    kernels.Variant
	wram int64
}

// Cache memoizes cost-model decisions. The zero value is not ready; use
// NewCache. All methods are safe for concurrent use.
type Cache struct {
	mu           sync.Mutex
	choices      map[choiceKey]Choice
	variants     map[variantKey]int
	hits, misses int64
}

// NewCache returns an empty decision cache.
func NewCache() *Cache {
	return &Cache{
		choices:  make(map[choiceKey]Choice),
		variants: make(map[variantKey]int),
	}
}

// count records one lookup's outcome; the caller holds c.mu.
func (c *Cache) count(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// Choose is a memoized Choose. Errors are not cached: a failing
// configuration is cheap to re-detect and callers treat it as fatal anyway.
func (c *Cache) Choose(m Model, f quant.Format, M, K, N int, cfg *pim.Config) (Choice, error) {
	key := choiceKey{model: m, fmt: f, m: M, k: K, n: N,
		wram: cfg.WRAMLUTBudget(), mram: cfg.MRAMLUTBudget()}
	c.mu.Lock()
	ch, ok := c.choices[key]
	c.count(ok)
	c.mu.Unlock()
	if ok {
		return ch, nil
	}
	ch, err := Choose(m, f, M, K, N, cfg)
	if err != nil {
		return Choice{}, err
	}
	c.mu.Lock()
	c.choices[key] = ch
	c.mu.Unlock()
	return ch, nil
}

// ChooseForVariant is a memoized ChooseForVariant.
func (c *Cache) ChooseForVariant(f quant.Format, v kernels.Variant, cfg *pim.Config) (int, error) {
	key := variantKey{fmt: f, v: v, wram: cfg.WRAMLUTBudget()}
	c.mu.Lock()
	p, ok := c.variants[key]
	c.count(ok)
	c.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := ChooseForVariant(f, v, cfg)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.variants[key] = p
	c.mu.Unlock()
	return p, nil
}

// Stats reports hit/miss counts (diagnostics and tests) summed over both
// decision kinds.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
