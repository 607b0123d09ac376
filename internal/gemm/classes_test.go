package gemm

import (
	"fmt"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// TestClassPricingMatchesFullGrid is the regression table for pricing a
// grid by its tile classes. The default report (bank (0,0) verified) must
// equal the FullGrid report (every bank verified) on kernel cycles, meter,
// breakdown and total, for every design, both tilings and three formats,
// in both execution modes. The shapes include ragged grids, whose last row
// or column is narrower than the planned tile or whose grid holds empty
// positions (768×768×{2176, 2560, 3072, 3968}, 1000×768×3000), and
// multi-round ones (6000×768×4100, 12000×256×9000); extrapolating bank
// (0,0)'s tile to the whole grid overstates their device events.
//
// Every case also checks the PIM-side books: each class record's breakdown
// sums to its cycles, the report's breakdown sums to the count-weighted
// class cycles, and the kernel wall-clock lies between the slowest class
// and that sum.
//
// Functional full-grid simulation of the large shapes would run billions of
// lookups, so functional mode covers the shapes small enough to simulate
// whole; the pricing it checks is the same function either way, and every
// functional run checks its verified banks against their class records.
func TestClassPricingMatchesFullGrid(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, n := range []int{128, 2176, 2560, 3072, 3968} {
		shapes = append(shapes, shape{768, 768, n})
	}
	shapes = append(shapes,
		shape{1000, 768, 3000},
		shape{6000, 768, 4100}, shape{12000, 256, 9000},
		shape{5, 64, 3}, shape{96, 64, 24},
	)
	const functionalMNK = 96 * 64 * 24

	multiRound := 0
	for _, mode := range []kernels.Mode{kernels.CyclesOnly, kernels.Functional} {
		def, full := NewEngine(), NewEngine()
		def.Exec = ExecOptions{Parallelism: 2, Mode: mode}
		full.Exec = ExecOptions{Parallelism: 2, Mode: mode, FullGrid: true}
		for _, sh := range shapes {
			if mode == kernels.Functional && sh.m*sh.k*sh.n > functionalMNK {
				continue
			}
			for _, f := range []quant.Format{quant.W1A3, quant.W2A2, quant.W4A4} {
				pair, err := def.NewPair(sh.m, sh.k, sh.n, f, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, nsplit := range []bool{false, true} {
					for _, v := range kernels.Variants {
						name := fmt.Sprintf("%s %dx%dx%d %s nsplit=%v %v", mode, sh.m, sh.k, sh.n, f.Name(), nsplit, v)
						opt := Options{Variant: v, NSplitOnly: nsplit}
						got, err := def.Run(pair, opt)
						if err != nil {
							t.Fatalf("%s default: %v", name, err)
						}
						want, err := full.Run(pair, opt)
						if err != nil {
							t.Fatalf("%s full grid: %v", name, err)
						}
						if got.KernelCycles != want.KernelCycles || got.Meter != want.Meter ||
							got.Breakdown != want.Breakdown || got.Total != want.Total {
							t.Errorf("%s: default report differs from the full grid\n default   cycles %d meter %+v breakdown %+v total %g\n full grid cycles %d meter %+v breakdown %+v total %g",
								name, got.KernelCycles, got.Meter, got.Breakdown, got.Total,
								want.KernelCycles, want.Meter, want.Breakdown, want.Total)
						}
						if got.Rounds > 1 {
							multiRound++
						}
						checkPIMBooks(t, def, pair, opt, got, name)
					}
				}
			}
		}
	}
	if multiRound == 0 {
		t.Error("no case planned more than one round; the table no longer covers the round walk")
	}
}

// checkPIMBooks re-plans the report's run and checks its class records and
// totals against the PIM-side identities.
func checkPIMBooks(t *testing.T, e *Engine, pair *workload.GEMMPair, opt Options, rep *Report, name string) {
	t.Helper()
	probe := Report{Variant: rep.Variant, GridM: rep.GridM, GridN: rep.GridN, TileM: rep.TileM, TileN: rep.TileN}
	kn, _, err := e.plan(&probe, pair.Fmt, pair.K, opt)
	if err != nil {
		t.Fatalf("%s: re-plan: %v", name, err)
	}
	c, err := e.priceGrid(pair, kn, &probe)
	if err != nil {
		t.Fatalf("%s: re-price: %v", name, err)
	}
	var weighted, slowest int64
	for k, n := range c.n {
		if n == 0 {
			continue
		}
		rec := &c.rec[k]
		if rec.breakdown.Total() != rec.cycles {
			t.Errorf("%s: class %d breakdown sums to %d, record cycles %d", name, k, rec.breakdown.Total(), rec.cycles)
		}
		weighted += n * rec.cycles
		slowest = max(slowest, rec.cycles)
	}
	if total := rep.Breakdown.Total(); total != weighted {
		t.Errorf("%s: report breakdown sums to %d, count-weighted class cycles %d", name, total, weighted)
	}
	if rep.KernelCycles < slowest || rep.KernelCycles > rep.Breakdown.Total() {
		t.Errorf("%s: kernel cycles %d outside [slowest class %d, breakdown total %d]",
			name, rep.KernelCycles, slowest, rep.Breakdown.Total())
	}
}
