package kernels

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// randTile builds a reproducible random tile.
func randTile(tb testing.TB, m, k, n int, f quant.Format, seed int64) *Tile {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([]uint8, m*k)
	for i := range w {
		w[i] = uint8(rng.Intn(f.Weight.Levels()))
	}
	a := make([]uint8, k*n)
	for i := range a {
		a[i] = uint8(rng.Intn(f.Act.Levels()))
	}
	t, err := NewTile(m, k, n, f, w, a)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func freshDPU(tb testing.TB) *pim.DPU {
	tb.Helper()
	cfg := pim.DefaultConfig()
	return pim.NewDPU(&cfg)
}

// allKernels builds each design at a p that fits the default budgets for
// the given format.
func allKernels(tb testing.TB, f quant.Format) []Kernel {
	tb.Helper()
	cfg := pim.DefaultConfig()
	costs := DefaultCosts()
	pOP := maxFitP(f, cfg.WRAMLUTBudget(), func(s lut.Spec) int64 { return s.OpPackedBytes() })
	pLC := maxFitP(f, cfg.WRAMLUTBudget(), func(s lut.Spec) int64 { return s.CanonicalBytes() })
	pRC := maxFitP(f, cfg.WRAMLUTBudget(), func(s lut.Spec) int64 { return s.CombinedBytes() })
	pSS := maxFitP(f, cfg.MRAMLUTBudget(), func(s lut.Spec) int64 { return s.CombinedBytes() })
	// Keep the streaming slice pairs within the WRAM budget at k=4.
	for pSS > 1 {
		s := lut.MustSpec(f, pSS)
		if 4*s.SliceBytes() <= cfg.WRAMLUTBudget() && s.CombinedBytes() <= lut.MaxBuildBytes {
			break
		}
		pSS--
	}
	return []Kernel{
		NewNaiveKernel(costs),
		NewLTCKernel(costs),
		NewOPKernel(costs, lut.MustSpec(f, pOP)),
		NewOPLCKernel(costs, lut.MustSpec(f, pLC)),
		NewOPLCRCKernel(costs, lut.MustSpec(f, pRC)),
		NewStreamKernel(costs, lut.MustSpec(f, pSS), 4),
	}
}

// maxFitP returns the largest p whose size (per sizeFn) fits the budget.
func maxFitP(f quant.Format, budget int64, sizeFn func(lut.Spec) int64) int {
	best := 1
	for p := 1; p <= 10; p++ {
		s, err := lut.NewSpec(f, p)
		if err != nil {
			break
		}
		if sizeFn(s) <= budget && sizeFn(s) <= lut.MaxBuildBytes {
			best = p
		}
	}
	return best
}

// TestAllKernelsBitExact is the central correctness test: every kernel must
// reproduce the exact integer reference product for every format, including
// shapes where K is not a multiple of p.
func TestAllKernelsBitExact(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{16, 32, 8},
		{7, 33, 5}, // K not divisible by any p, odd M/N
		{1, 16, 1}, // degenerate edges
		{64, 96, 4},
	}
	for _, f := range quant.Formats {
		for _, sh := range shapes {
			tile := randTile(t, sh.m, sh.k, sh.n, f, int64(sh.m*1000+sh.k))
			want := RefGEMM(tile)
			for _, kn := range allKernels(t, f) {
				d := freshDPU(t)
				for i := range tile.O {
					tile.O[i] = 0
				}
				res, err := kn.Run(d, tile)
				if err != nil {
					t.Fatalf("%s %s %dx%dx%d: %v", f.Name(), kn.Name(), sh.m, sh.k, sh.n, err)
				}
				if !reflect.DeepEqual(tile.O, want) {
					t.Fatalf("%s %s %dx%dx%d: output mismatch\nfirst rows got %v\nwant %v",
						f.Name(), kn.Name(), sh.m, sh.k, sh.n,
						tile.O[:min(8, len(tile.O))], want[:min(8, len(want))])
				}
				if res.Cycles <= 0 {
					t.Errorf("%s %s: nonpositive cycles %d", f.Name(), kn.Name(), res.Cycles)
				}
				if res.Seconds <= 0 {
					t.Errorf("%s %s: nonpositive seconds", f.Name(), kn.Name())
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBreakdownAccountsAllCycles(t *testing.T) {
	f := quant.W1A3
	tile := randTile(t, 32, 64, 8, f, 7)
	for _, kn := range allKernels(t, f) {
		d := freshDPU(t)
		res, err := kn.Run(d, tile)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Breakdown.Total(), res.Cycles; got != want {
			t.Errorf("%s: breakdown total %d != cycles %d", kn.Name(), got, want)
		}
	}
}

func TestKernelSpeedOrdering(t *testing.T) {
	// For W1A3 with a tall weight matrix, the paper's ordering must hold:
	// LoCaLUT < OP+LC+RC < OP < Naive in cycles, and OP+LC slower than
	// OP+LC+RC (software reordering overhead).
	f := quant.W1A3
	tile := randTile(t, 256, 128, 8, f, 3)
	cycles := map[Variant]int64{}
	for i, kn := range allKernels(t, f) { // in Variant order
		d := freshDPU(t)
		res, err := kn.Run(d, tile)
		if err != nil {
			t.Fatal(err)
		}
		cycles[Variant(i)] = res.Cycles
	}
	if !(cycles[LoCaLUT] < cycles[OPLCRC]) {
		t.Errorf("LoCaLUT (%d) should beat OP+LC+RC (%d)", cycles[LoCaLUT], cycles[OPLCRC])
	}
	if !(cycles[OPLCRC] < cycles[OP]) {
		t.Errorf("OP+LC+RC (%d) should beat OP (%d)", cycles[OPLCRC], cycles[OP])
	}
	if !(cycles[OP] < cycles[Naive]) {
		t.Errorf("OP (%d) should beat Naive (%d)", cycles[OP], cycles[Naive])
	}
	if !(cycles[OPLC] > cycles[OPLCRC]) {
		t.Errorf("OP+LC (%d) should be slower than OP+LC+RC (%d)", cycles[OPLC], cycles[OPLCRC])
	}
	if !(cycles[LoCaLUT] < cycles[Naive]/2) {
		t.Errorf("LoCaLUT (%d) should be at least 2x faster than Naive (%d)", cycles[LoCaLUT], cycles[Naive])
	}
}

func TestStreamKernelKSensitivity(t *testing.T) {
	// Larger k must reduce cycles for W1A3 (same p): the Fig. 13 mechanism.
	f := quant.W1A3
	tile := randTile(t, 128, 128, 4, f, 11)
	costs := DefaultCosts()
	spec := lut.MustSpec(f, 8)
	var prev int64 = 1 << 62
	for _, k := range []int{1, 2, 4, 8} {
		d := freshDPU(t)
		res, err := NewStreamKernel(costs, spec, k).Run(d, tile)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles >= prev {
			t.Errorf("k=%d: cycles %d did not improve on %d", k, res.Cycles, prev)
		}
		prev = res.Cycles
		if !reflect.DeepEqual(tile.O, RefGEMM(tile)) {
			t.Fatalf("k=%d: wrong output", k)
		}
	}
}

func TestStreamKernelRejectsOverbudget(t *testing.T) {
	costs := DefaultCosts()
	tile := randTile(t, 8, 16, 2, quant.W1A3, 1)
	d := freshDPU(t)
	// k so large the slices cannot fit WRAM.
	if _, err := NewStreamKernel(costs, lut.MustSpec(quant.W1A3, 8), 100).Run(d, tile); err == nil {
		t.Error("accepted k=100")
	}
	if _, err := NewStreamKernel(costs, lut.MustSpec(quant.W1A3, 8), 0).Run(d, tile); err == nil {
		t.Error("accepted k=0")
	}
	// W4A4 p=4 needs ~254 MB canonical: must exceed the MRAM budget.
	if _, err := NewStreamKernel(costs, lut.MustSpec(quant.W4A4, 4), 1).Run(d, tile); err == nil {
		t.Error("accepted p beyond the MRAM budget")
	}
}

func TestBufferKernelsRejectOverbudget(t *testing.T) {
	costs := DefaultCosts()
	tile := randTile(t, 8, 16, 2, quant.W1A3, 1)
	d := freshDPU(t)
	// W1A3 p=4 OP LUT = 2^16 entries > 32 KB WRAM budget.
	if _, err := NewOPKernel(costs, lut.MustSpec(quant.W1A3, 4)).Run(d, tile); err == nil {
		t.Error("OP accepted p=4 (64 KB LUT)")
	}
	// W1A3 p=6 canonical = 64*1716 = 110 KB > budget.
	if _, err := NewOPLCKernel(costs, lut.MustSpec(quant.W1A3, 6)).Run(d, tile); err == nil {
		t.Error("OP+LC accepted p=6")
	}
	if _, err := NewOPLCRCKernel(costs, lut.MustSpec(quant.W1A3, 6)).Run(d, tile); err == nil {
		t.Error("OP+LC+RC accepted p=6")
	}
}

func TestPaperPLocalChoices(t *testing.T) {
	// §V-A: for W1A3 the buffer holds p=5 with canonicalization (LC+RC) and
	// p=3 without (plain OP); the bank holds p=8.
	cfg := pim.DefaultConfig()
	if got := maxFitP(quant.W1A3, cfg.WRAMLUTBudget(), func(s lut.Spec) int64 { return s.OpPackedBytes() }); got != 3 {
		t.Errorf("OP p_local = %d, want 3", got)
	}
	if got := maxFitP(quant.W1A3, cfg.WRAMLUTBudget(), func(s lut.Spec) int64 { return s.CombinedBytes() }); got != 5 {
		t.Errorf("LC+RC p_local = %d, want 5", got)
	}
	if got := maxFitP(quant.W1A3, cfg.MRAMLUTBudget(), func(s lut.Spec) int64 { return s.CombinedBytes() }); got != 8 {
		t.Errorf("LC+RC p_DRAM = %d, want 8", got)
	}
}

func TestLTCHandlesAllWeightModes(t *testing.T) {
	// Exercise the plane-coefficient decomposition across codec modes,
	// including an unsigned weight codec (not part of the paper's formats
	// but supported by the decomposition).
	formats := []quant.Format{
		quant.W1A3, // symmetric 1-bit weights
		quant.W2A2, // two's complement
		quant.W4A4,
		{Weight: quant.MustCodec(2, quant.Unsigned), Act: quant.MustCodec(3, quant.Twos)},
		{Weight: quant.MustCodec(2, quant.Symmetric), Act: quant.MustCodec(3, quant.Twos)},
	}
	for _, f := range formats {
		tile := randTile(t, 9, 21, 3, f, 5)
		d := freshDPU(t)
		if _, err := NewLTCKernel(DefaultCosts()).Run(d, tile); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if want := RefGEMM(tile); !reflect.DeepEqual(tile.O, want) {
			t.Errorf("%v: LTC mismatch", f)
		}
	}
}

func TestNewTileValidation(t *testing.T) {
	if _, err := NewTile(0, 1, 1, quant.W1A3, nil, nil); err == nil {
		t.Error("accepted M=0")
	}
	if _, err := NewTile(2, 2, 2, quant.W1A3, make([]uint8, 3), make([]uint8, 4)); err == nil {
		t.Error("accepted wrong W length")
	}
	if _, err := NewTile(2, 2, 2, quant.W1A3, make([]uint8, 4), make([]uint8, 5)); err == nil {
		t.Error("accepted wrong A length")
	}
}

func TestVariantString(t *testing.T) {
	if Naive.String() != "NaivePIM" || LoCaLUT.String() != "LoCaLUT" {
		t.Error("variant names")
	}
	if Variant(42).String() != "Variant(42)" {
		t.Error("unknown variant name")
	}
	if len(Variants) != int(NumVariants) {
		t.Error("Variants list incomplete")
	}
}

func TestFig16BreakdownShape(t *testing.T) {
	// Fig. 16(b): in the LoCaLUT GEMM kernel, reordering-LUT index
	// calculation dominates and LUT accesses are a small share;
	// reordering LUT access is in the mid-single-digit percent range.
	f := quant.W1A3
	tile := randTile(t, 512, 256, 8, f, 13)
	d := freshDPU(t)
	spec := lut.MustSpec(f, 8)
	res, err := NewStreamKernel(DefaultCosts(), spec, 4).Run(d, tile)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	total := float64(b.Total())
	idx := float64(b.IdxCalc) / total
	reord := float64(b.ReorderAccess) / total
	canon := float64(b.CanonAccess) / total
	if idx < 0.30 {
		t.Errorf("index calc share %.2f, want dominant (>= 0.30)", idx)
	}
	if reord < 0.02 || reord > 0.15 {
		t.Errorf("reorder access share %.3f, want ~0.07 (paper: 6.9%%)", reord)
	}
	if canon > idx {
		t.Errorf("canonical access (%.2f) should not dominate index calc (%.2f)", canon, idx)
	}
}

func BenchmarkNaiveKernel(b *testing.B) {
	tile := randTile(b, 64, 256, 16, quant.W1A3, 1)
	kn := NewNaiveKernel(DefaultCosts())
	d := freshDPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kn.Run(d, tile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamKernel(b *testing.B) {
	tile := randTile(b, 64, 256, 16, quant.W1A3, 1)
	kn := NewStreamKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 8), 4)
	d := freshDPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kn.Run(d, tile); err != nil {
			b.Fatal(err)
		}
	}
}
