package costmodel

import (
	"math"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// streamTime evaluates Eq. 2 as printed: the slice-streaming execution time
// of an M x K x N GEMM at packing degree p,
//
//	T = 2^(bw*p) * (K*N/p) * L_D  +  (M*K*N/p) * L_local.
//
// Choose prices streaming with StreamTimeBytes, its byte-accurate
// refinement; this form stays here to pin the paper's equation and the
// ablation that motivates the refinement.
func (m Model) streamTime(bw, p, M, K, N int) float64 {
	groups := float64(K) * float64(N) / float64(p)
	sliceEntries := math.Pow(2, float64(bw*p))
	return sliceEntries*groups*m.LD + float64(M)*groups*m.LLocal
}

// breakEvenM evaluates Eq. 6: buffer residence beats streaming when
// M < 2^(bw*p*) * (L_D/L_local) * (p_local / (p* - p_local)). Eq. 6
// restates the Eq. 2 vs Eq. 4 comparison that Choose makes directly.
func (m Model) breakEvenM(bw, pStar, pLocal int) float64 {
	if pStar <= pLocal {
		return math.Inf(1) // streaming cannot win without a p advantage
	}
	return math.Pow(2, float64(bw*pStar)) * (m.LD / m.LLocal) *
		float64(pLocal) / float64(pStar-pLocal)
}

func TestDefaultConstants(t *testing.T) {
	m := Default()
	if m.LD != 1.36e-9 || m.LLocal != 3.27e-8 {
		t.Errorf("constants %g %g", m.LD, m.LLocal)
	}
	// The §VI-I split, as kernels.DefaultCosts states it.
	if m.RCInstr != 12 || m.StreamBaseInstr != 10 || m.OutUpdateInstr != 3 {
		t.Errorf("instruction split %g/%g/%g, want 12/10/3", m.RCInstr, m.StreamBaseInstr, m.OutUpdateInstr)
	}
}

func TestStreamTimeEq2(t *testing.T) {
	// Hand-evaluate Eq. 2 for W2A2 (bw=2), p=5, (3072,768,768):
	// 2^10 * (768*768/5) * 1.36e-9 + 3072*768*768/5 * 3.27e-8.
	m := Default()
	got := m.streamTime(2, 5, 3072, 768, 768)
	slice := math.Pow(2, 10) * (768.0 * 768.0 / 5.0) * 1.36e-9
	local := 3072.0 * 768.0 * 768.0 / 5.0 * 3.27e-8
	want := slice + local
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("streamTime = %g, want %g", got, want)
	}
	// The second (L_local) term must dominate at this shape, as Fig. 18
	// implies (~12 s total, slice loading ~0.16 s).
	if local < 10 || local > 13 {
		t.Errorf("L_local term = %g s, expected ~11.9 s", local)
	}
	if slice > 0.3 {
		t.Errorf("slice term = %g s, expected ~0.16 s", slice)
	}
}

func TestBufferTimeEq4(t *testing.T) {
	m := Default()
	got := m.BufferTime(4, 768, 768, 768)
	want := 768.0 * 768.0 * 768.0 / 4.0 * 3.27e-8
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("BufferTime = %g, want %g", got, want)
	}
	if !math.IsInf(m.BufferTime(0, 1, 1, 1), 1) {
		t.Error("pLocal=0 should be infinite cost")
	}
}

func TestBreakEvenMGrowsWithBw(t *testing.T) {
	// §IV-D: the break-even M increases with (1) larger bw, (3) smaller
	// gap between p* and p_local.
	m := Default()
	lo := m.breakEvenM(1, 8, 5)
	hi := m.breakEvenM(2, 8, 5)
	if !(hi > lo) {
		t.Errorf("break-even M should grow with bw: bw1=%g bw2=%g", lo, hi)
	}
	// At fixed p*, a larger p_local (smaller gap) raises the break-even M.
	narrow := m.breakEvenM(1, 8, 7)
	wide := m.breakEvenM(1, 8, 5)
	if !(narrow > wide) {
		t.Errorf("break-even M should grow as p*-p_local shrinks: narrow=%g wide=%g", narrow, wide)
	}
	if !math.IsInf(m.breakEvenM(1, 5, 5), 1) {
		t.Error("p* == p_local should never stream")
	}
}

func TestMaxPMatchesPaper(t *testing.T) {
	cfg := pim.DefaultConfig()
	// §V-A quotes for W1A3: p_DRAM = 8 / p_local = 5 with canonicalization,
	// 6 / 3 without.
	cases := []struct {
		f      quant.Format
		budget int64
		v      kernels.Variant
		want   int
	}{
		{quant.W1A3, cfg.MRAMLUTBudget(), kernels.LoCaLUT, 8},
		{quant.W1A3, cfg.WRAMLUTBudget(), kernels.LoCaLUT, 5},
		{quant.W1A3, cfg.MRAMLUTBudget(), kernels.OP, 6},
		{quant.W1A3, cfg.WRAMLUTBudget(), kernels.OP, 3},
		// W4A4: canonical LUT at p=4 needs ~254 MB -> p_DRAM = 3 (Fig. 18a
		// sweeps p = 1..3); buffer holds p=2.
		{quant.W4A4, cfg.MRAMLUTBudget(), kernels.LoCaLUT, 3},
		{quant.W4A4, cfg.WRAMLUTBudget(), kernels.LoCaLUT, 2},
		// W2A2: Fig. 18(b) sweeps p = 4..6; p_DRAM must reach >= 6,
		// buffer holds 4.
		{quant.W2A2, cfg.WRAMLUTBudget(), kernels.LoCaLUT, 4},
	}
	for _, c := range cases {
		if got := MaxP(c.f, c.budget, c.v); got != c.want {
			t.Errorf("MaxP(%s, %d, %v) = %d, want %d",
				c.f.Name(), c.budget, c.v, got, c.want)
		}
	}
	if got := MaxP(quant.W2A2, cfg.MRAMLUTBudget(), kernels.LoCaLUT); got < 6 {
		t.Errorf("W2A2 p_DRAM = %d, want >= 6", got)
	}
}

func TestChoosePrefersStreamingForTallM(t *testing.T) {
	cfg := pim.DefaultConfig()
	m := Default()
	// W4A4 Fig. 18(a): p=3 (streaming) wins for (3072,768,768) but not for
	// (768,768,768), where buffer-resident p=2 is best.
	big, err := Choose(m, quant.W4A4, 3072, 768, 768, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !big.Streaming || big.P != 3 {
		t.Errorf("(3072,768,768) W4A4: got p=%d streaming=%v, want p=3 streaming", big.P, big.Streaming)
	}
	small, err := Choose(m, quant.W4A4, 768, 768, 768, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.Streaming {
		t.Errorf("(768,768,768) W4A4: expected buffer-resident, got streaming p=%d", small.P)
	}
	if small.P != 2 {
		t.Errorf("(768,768,768) W4A4: p = %d, want p_local = 2", small.P)
	}
}

func TestChooseW2A2MatchesFig18b(t *testing.T) {
	cfg := pim.DefaultConfig()
	m := Default()
	// Fig. 18(b): the model picks p=5 for both (768,768,768) and
	// (3072,768,768) under W2A2 (a slight misprediction for the smaller
	// matrix, which the paper reports).
	for _, M := range []int{768, 3072} {
		c, err := Choose(m, quant.W2A2, M, 768, 768, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Streaming || c.P != 5 {
			t.Errorf("M=%d W2A2: got p=%d streaming=%v, want p=5 streaming", M, c.P, c.Streaming)
		}
	}
}

func TestChooseKFitsWRAM(t *testing.T) {
	cfg := pim.DefaultConfig()
	m := Default()
	c, err := Choose(m, quant.W1A3, 4096, 768, 768, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Streaming || c.P != 8 {
		t.Errorf("W1A3 tall: p=%d streaming=%v", c.P, c.Streaming)
	}
	// W1A3 p=8 slices are 512 B; k=8 easily fits 32 KB.
	if c.K != 8 {
		t.Errorf("k = %d, want 8", c.K)
	}
}

func TestChooseValidation(t *testing.T) {
	cfg := pim.DefaultConfig()
	if _, err := Choose(Default(), quant.W1A3, 0, 10, 10, &cfg); err == nil {
		t.Error("accepted M=0")
	}
}

func TestChooseForVariant(t *testing.T) {
	cfg := pim.DefaultConfig()
	p, err := ChooseForVariant(quant.W1A3, kernels.OP, &cfg)
	if err != nil || p != 3 {
		t.Errorf("OP p = %d err %v, want 3", p, err)
	}
	p, err = ChooseForVariant(quant.W1A3, kernels.OPLC, &cfg)
	if err != nil || p != 5 {
		t.Errorf("LC p = %d err %v, want 5", p, err)
	}
}

// TestPlannerAndKernelAgreeOnFootprint: the packing degree the planner picks
// for a packed design runs in that design's cycles-only kernel, and one more
// is refused by the kernel's budget check wherever lut.NewSpec accepts it.
// LoCaLUT is checked streaming, at MaxP over the MRAM budget.
func TestPlannerAndKernelAgreeOnFootprint(t *testing.T) {
	cfg := pim.DefaultConfig()
	c := kernels.DefaultCosts()
	for _, f := range quant.Formats {
		for _, v := range []kernels.Variant{kernels.OP, kernels.OPLC, kernels.OPLCRC, kernels.LoCaLUT} {
			p := MaxP(f, cfg.MRAMLUTBudget(), v)
			if v != kernels.LoCaLUT {
				var err error
				if p, err = ChooseForVariant(f, v, &cfg); err != nil {
					t.Fatalf("%v %s: %v", v, f.Name(), err)
				}
			}
			run := func(p int) error {
				spec := lut.MustSpec(f, p)
				var kn kernels.Kernel
				switch v {
				case kernels.OP:
					kn = kernels.NewOPKernel(c, spec)
				case kernels.OPLC:
					kn = kernels.NewOPLCKernel(c, spec)
				case kernels.OPLCRC:
					kn = kernels.NewOPLCRCKernel(c, spec)
				default:
					kn = kernels.NewStreamKernel(c, spec, 1)
				}
				tile, err := kernels.NewShapeTile(16, 24, 3, f)
				if err != nil {
					t.Fatal(err)
				}
				_, err = kn.Run(pim.NewAccountingDPU(&cfg), tile)
				return err
			}
			if err := run(p); err != nil {
				t.Errorf("%v %s: kernel refuses the planner's p=%d: %v", v, f.Name(), p, err)
			}
			if _, err := lut.NewSpec(f, p+1); err != nil {
				continue
			}
			if err := run(p + 1); err == nil || !strings.Contains(err.Error(), "LUT budget") {
				t.Errorf("%v %s: p=%d past the planner's %d: error %v, want the budget check", v, f.Name(), p+1, p, err)
			}
		}
	}
}

func TestModelPredictionOrdering(t *testing.T) {
	// Larger p strictly reduces the L_local term; the model must therefore
	// prefer larger p until slice loading dominates. For W1A3 (slow LUT
	// growth) p* = p_DRAM = 8 for any sizeable M (§IV-D: "With small bw ...
	// a larger p* is favored, potentially up to p_DRAM").
	cfg := pim.DefaultConfig()
	c, err := Choose(Default(), quant.W1A3, 768, 768, 128, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.P != 8 || !c.Streaming {
		t.Errorf("W1A3 (768,768,128): p=%d streaming=%v, want p=8 streaming", c.P, c.Streaming)
	}
}
