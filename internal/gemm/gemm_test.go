package gemm

import (
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

func TestPlanGrid(t *testing.T) {
	e := NewEngine()
	// Naive has no per-tile fixed costs: it should split M for utilization.
	gm, gn, r := e.planGrid(kernels.Naive, false, quant.W1A3, 768, 768, 128)
	if gn != 128 || gm != 16 || r != 1 {
		t.Errorf("naive planGrid(768,128) = (%d,%d,%d), want (16,128,1)", gm, gn, r)
	}
	// LoCaLUT must keep tiles tall enough to amortize slice loads: its
	// tileM should be at least as tall as naive's.
	gmL, gnL, _ := e.planGrid(kernels.LoCaLUT, false, quant.W1A3, 768, 768, 128)
	if gnL != 128 {
		t.Errorf("LoCaLUT gridN = %d, want 128", gnL)
	}
	if gmL > gm {
		t.Errorf("LoCaLUT splits M more than naive (%d > %d)", gmL, gm)
	}
	// Huge N: full M per bank, one column slab each.
	gm, gn, r = e.planGrid(kernels.LoCaLUT, false, quant.W1A3, 3072, 768, 16384)
	if gn != 2048 || gm != 1 || r != 1 {
		t.Errorf("planGrid(3072,16384) = (%d,%d,%d), want (1,2048,1)", gm, gn, r)
	}
	// Fig. 17 shape: M exceeds the WRAM accumulator bound, forcing a split.
	gm, gn, r = e.planGrid(kernels.LoCaLUT, false, quant.W1A3, 12288, 192, 65536)
	if gn != 2048 || gm < 2 || r < 2 {
		t.Errorf("planGrid(12288,65536) = (%d,%d,%d), want gridN=2048 and multiple rounds", gm, gn, r)
	}
	// The paper's tiling splits M only where tileMMax forces it, whatever
	// the variant: full M per bank at 768 rows, two rounds at 12288.
	gm, gn, r = e.planGrid(kernels.Naive, true, quant.W1A3, 768, 768, 128)
	if gn != 128 || gm != 1 || r != 1 {
		t.Errorf("paper-tiled planGrid(768,128) = (%d,%d,%d), want (1,128,1)", gm, gn, r)
	}
	gm, gn, r = e.planGrid(kernels.LoCaLUT, true, quant.W1A3, 12288, 192, 65536)
	if want := (12288 + e.tileMMax() - 1) / e.tileMMax(); gn != 2048 || gm != want || r != want {
		t.Errorf("paper-tiled planGrid(12288,65536) = (%d,%d,%d), want (%d,2048,%d)", gm, gn, r, want, want)
	}
}

func TestRunAllVariantsVerify(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(96, 64, 16, quant.W1A3, 42)
	for _, v := range kernels.Variants {
		rep, err := e.Run(pair, Options{Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !rep.Verified {
			t.Fatalf("%v: not verified", v)
		}
		if rep.Total <= 0 || rep.KernelSeconds <= 0 {
			t.Errorf("%v: nonpositive times %+v", v, rep)
		}
		if rep.HostSeconds <= 0 || rep.Transfer <= 0 {
			t.Errorf("%v: missing host/transfer charges", v)
		}
	}
}

func TestPaperShapeSpeedupOrdering(t *testing.T) {
	// Under the paper's context-parallel tiling and a Fig. 9-class shape,
	// the design points must order as the paper reports for W1A3.
	e := NewEngine()
	pair := workload.NewGEMMPair(256, 256, 4, quant.W1A3, 42)
	totals := map[kernels.Variant]float64{}
	for _, v := range kernels.Variants {
		rep, err := e.Run(pair, Options{Variant: v, NSplitOnly: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		totals[v] = rep.Total
	}
	if !(totals[kernels.LoCaLUT] < totals[kernels.OPLCRC]) {
		t.Errorf("LoCaLUT (%g) should beat OP+LC+RC (%g)", totals[kernels.LoCaLUT], totals[kernels.OPLCRC])
	}
	if !(totals[kernels.OPLCRC] < totals[kernels.Naive]) {
		t.Errorf("OP+LC+RC (%g) should beat Naive (%g)", totals[kernels.OPLCRC], totals[kernels.Naive])
	}
	if !(totals[kernels.OPLC] > totals[kernels.OPLCRC]) {
		t.Errorf("OP+LC (%g) should trail OP+LC+RC (%g)", totals[kernels.OPLC], totals[kernels.OPLCRC])
	}
	if s := totals[kernels.Naive] / totals[kernels.LoCaLUT]; s < 2 {
		t.Errorf("LoCaLUT speedup over Naive = %.2f, want >= 2 for W1A3", s)
	}
}

func TestRunComputeFullMatchesTileEdge(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(32, 48, 8, quant.W2A2, 5)
	rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT, ComputeFull: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Output) != 32*8 {
		t.Fatalf("full output length %d", len(rep.Output))
	}
	// Cross-check one value against a direct dot product.
	var want int32
	for k := 0; k < 48; k++ {
		want += pair.Fmt.Weight.Decode(uint32(pair.W.Codes[0*48+k])) *
			pair.Fmt.Act.Decode(uint32(pair.A.Codes[k*8+0]))
	}
	if rep.Output[0] != want {
		t.Errorf("Output[0] = %d, want %d", rep.Output[0], want)
	}
}

func TestForcePAndK(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(64, 64, 8, quant.W1A3, 9)
	rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT, ForceP: 6, ForceK: 2, ForceStreaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.P != 6 || rep.K != 2 || !rep.Streaming {
		t.Errorf("forced plan not honored: p=%d k=%d streaming=%v", rep.P, rep.K, rep.Streaming)
	}
}

func TestLoCaLUTFallsBackToBuffer(t *testing.T) {
	// W4A4 with small tile M: the cost model must pick the buffer-resident
	// kernel (Fig. 18(a) behaviour).
	e := NewEngine()
	pair := workload.NewGEMMPair(48, 96, 4, quant.W4A4, 3)
	rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streaming {
		t.Errorf("small-M W4A4 chose streaming (p=%d)", rep.P)
	}
	if rep.P != 2 {
		t.Errorf("p = %d, want p_local = 2", rep.P)
	}
}

func TestMeterAggregation(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(64, 64, 16, quant.W1A3, 21)
	rep, err := e.Run(pair, Options{Variant: kernels.Naive})
	if err != nil {
		t.Fatal(err)
	}
	gm, gn, _ := e.planGrid(kernels.Naive, false, quant.W1A3, 64, 64, 16)
	if gm*gn < 2 {
		t.Skip("grid too small to observe aggregation")
	}
	// Aggregated instruction count must be the tile count times a
	// single-tile run (all tiles are shape-identical).
	if rep.Meter.Counts[0] == 0 {
		t.Error("no aggregated instructions")
	}
}

func TestHostBreakdownShares(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(256, 256, 32, quant.W1A3, 8)
	rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT})
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Host
	if h.SortPack <= h.Quantize {
		t.Errorf("canonicalization (%.3g) should cost more than quantization (%.3g)", h.SortPack, h.Quantize)
	}
	if rep.InitSeconds <= 0 {
		t.Error("init seconds not charged")
	}
}
