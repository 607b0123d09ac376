package gemm

import (
	"reflect"
	"sync"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// reportsEqual compares everything a Report derives from simulation.
func reportsEqual(a, b *Report) bool {
	return a.KernelCycles == b.KernelCycles && a.Total == b.Total &&
		a.Meter == b.Meter && a.Breakdown == b.Breakdown &&
		a.P == b.P && a.K == b.K && a.Verified == b.Verified &&
		reflect.DeepEqual(a.Output, b.Output)
}

// TestPooledMatchesFreshEngine is the pooled engine's equivalence guarantee:
// one engine whose arenas (recycled DPUs, workspaces, tile storage) and
// memos (reference products, cost records) carry over from every earlier
// run produces bit-identical reports to a fresh engine per run, for every
// design, in both verification scopes, serial and parallel.
func TestPooledMatchesFreshEngine(t *testing.T) {
	const m, k, n = 96, 64, 24
	pooled := NewEngine()
	for _, fullGrid := range []bool{true, false} {
		for _, par := range []int{1, 8} {
			for _, v := range kernels.Variants {
				run := func(e *Engine) *Report {
					e.Exec = ExecOptions{Parallelism: par, FullGrid: fullGrid}
					rep, err := e.Run(workload.NewGEMMPair(m, k, n, quant.W1A3, 1),
						Options{Variant: v, ComputeFull: fullGrid})
					if err != nil {
						t.Fatalf("%v fullGrid=%v par=%d: %v", v, fullGrid, par, err)
					}
					return rep
				}
				warm, fresh := run(pooled), run(NewEngine())
				if !reportsEqual(warm, fresh) {
					t.Fatalf("%v fullGrid=%v par=%d: pooled and fresh-engine reports diverge:\npooled %+v\nfresh  %+v",
						v, fullGrid, par, warm, fresh)
				}
			}
		}
	}
}

// TestPooledRepeatedRunsIdentical drives many runs through one engine so
// every arena, segment pool and workspace is recycled repeatedly, and pins
// each report against the first — a stale byte anywhere would diverge the
// verified outputs or meters.
func TestPooledRepeatedRunsIdentical(t *testing.T) {
	e := NewEngine()
	e.Exec = ExecOptions{Parallelism: 2, FullGrid: true}
	pair := workload.NewGEMMPair(48, 32, 12, quant.W2A2, 5)
	var first *Report
	for i := 0; i < 5; i++ {
		for _, v := range kernels.Variants {
			rep, err := e.Run(pair, Options{Variant: v, ComputeFull: true})
			if err != nil {
				t.Fatal(err)
			}
			if v == kernels.Variants[0] {
				if first == nil {
					first = rep
				} else if !reportsEqual(first, rep) {
					t.Fatalf("iteration %d: report drifted across recycled runs", i)
				}
			}
		}
	}
}

// TestConcurrentEnginesShareArenas is the workspace-aliasing regression
// test: overlapping full-grid jobs on one engine and on clones (all sharing
// one arena pool) must not leak buffers across tiles or jobs. Every job
// verifies every tile against the integer reference internally, and the
// assembled products are checked against per-pair references computed
// outside the engine. Run under -race in CI.
func TestConcurrentEnginesShareArenas(t *testing.T) {
	base := NewEngine()
	base.Exec = ExecOptions{Parallelism: 4, FullGrid: true}

	type job struct {
		pair *workload.GEMMPair
		v    kernels.Variant
	}
	var jobs []job
	for i := 0; i < 6; i++ {
		pair := workload.NewGEMMPair(40+8*i, 48, 8+3*i, quant.W1A3, int64(i))
		jobs = append(jobs, job{pair, kernels.Variants[i%len(kernels.Variants)]})
	}

	var wg sync.WaitGroup
	outs := make([][]int32, len(jobs))
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			e := base
			if i%2 == 1 {
				e = base.Clone() // clones share the arena pool
			}
			rep, err := e.Run(j.pair, Options{Variant: j.v, ComputeFull: true})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = rep.Output
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d (%v): %v", i, j.v, errs[i])
		}
		full, err := fullTile(j.pair)
		if err != nil {
			t.Fatal(err)
		}
		if want := kernels.RefGEMM(full); !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("job %d (%v): concurrent pooled output diverges from the reference", i, j.v)
		}
	}
}

// TestEngineSteadyStateAllocations pins the engine-level allocation budget
// of the functional full-grid hot path: after warmup, a serial run must
// average no more than a few allocations per bank tile (the per-run Report
// and task bookkeeping amortize across tiles; the per-tile path itself
// contributes ~1, the kernel Result).
func TestEngineSteadyStateAllocations(t *testing.T) {
	e := NewEngine()
	e.Exec = ExecOptions{Parallelism: 1, FullGrid: true}
	pair := workload.NewGEMMPair(128, 64, 32, quant.W1A3, 1)

	var tiles int
	for i := 0; i < 2; i++ { // warm: LUT cache, arenas, memos
		for _, v := range kernels.Variants {
			rep, err := e.Run(pair, Options{Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				tiles += rep.BanksSimulated
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, v := range kernels.Variants {
			if _, err := e.Run(pair, Options{Variant: v}); err != nil {
				t.Fatal(err)
			}
		}
	})
	perTile := allocs / float64(tiles)
	if perTile > 4 {
		t.Errorf("functional full-grid steady state allocates %.2f objects per bank tile (%.0f over %d tiles), want <= 4",
			perTile, allocs, tiles)
	}
}

// TestRefCacheInvalidatesOnNewPair guards the reference memo: switching
// pairs must recompute the product, not verify against the old one.
func TestRefCacheInvalidatesOnNewPair(t *testing.T) {
	e := NewEngine()
	e.Exec = ExecOptions{FullGrid: true}
	for seed := int64(1); seed <= 3; seed++ {
		pair := workload.NewGEMMPair(33, 40, 17, quant.W2A2, seed)
		rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT, ComputeFull: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, err := fullTile(pair)
		if err != nil {
			t.Fatal(err)
		}
		if want := kernels.RefGEMM(full); !reflect.DeepEqual(rep.Output, want) {
			t.Fatalf("seed %d: output does not match this pair's reference", seed)
		}
	}
}
