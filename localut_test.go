package localut

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFormats(t *testing.T) {
	if W1A3.Name() != "W1A3" || W4A4.Name() != "W4A4" {
		t.Error("format names")
	}
	if W1A3.WeightBits() != 1 || W1A3.ActBits() != 3 {
		t.Error("format bits")
	}
	f, err := ParseFormat("W2A2")
	if err != nil || f.Name() != "W2A2" {
		t.Errorf("ParseFormat: %v %v", f, err)
	}
	if _, err := ParseFormat("bogus"); err == nil {
		t.Error("accepted bogus format")
	}
	if _, err := NewFormat(0, 3); err == nil {
		t.Error("accepted 0-bit weights")
	}
	if len(Formats) != 4 || len(Designs) != 6 {
		t.Error("preset lists")
	}
}

func TestDesignNames(t *testing.T) {
	if DesignNaive.String() != "NaivePIM" || DesignLoCaLUT.String() != "LoCaLUT" {
		t.Error("design names")
	}
}

func TestLUTCapacity(t *testing.T) {
	c, err := LUTCapacity(W1A3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.ReductionRate < 300 || c.ReductionRate > 420 {
		t.Errorf("reduction rate %.0f, want ~358", c.ReductionRate)
	}
	if c.SliceBytes != 512 {
		t.Errorf("slice bytes %d", c.SliceBytes)
	}
	if _, err := LUTCapacity(W1A3, 0); err == nil {
		t.Error("accepted p=0")
	}
}

func TestChoosePlan(t *testing.T) {
	sys := NewSystem()
	p, err := sys.ChoosePlan(W1A3, 3072, 768, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Streaming || p.P != 8 || p.SliceK != 8 {
		t.Errorf("plan %+v, want streaming p=8 k=8", p)
	}
	if p.PLocal != 5 || p.PDRAM != 8 {
		t.Errorf("residence limits %d/%d, want 5/8", p.PLocal, p.PDRAM)
	}
}

// TestChoosePlanMatchesGEMM checks that ChoosePlan reports what GEMM runs:
// the same P, Streaming and SliceK, and PredictedSeconds equal to
// TotalSeconds bit for bit. It covers the LoCaLUT GEMMs of Figs. 9, 10, 13
// and 18 in every evaluation format under both tilings, and Fig. 13's forced
// (p, k, streaming) points. The cycles-only system covers every case; the
// functional one runs the first Fig. 9 shape, so the plan also matches a run
// that simulates and verifies its bank.
func TestChoosePlanMatchesGEMM(t *testing.T) {
	shapes := [][3]int{
		{768, 768, 128}, {3072, 768, 128}, // Fig. 9; Fig. 13 runs the second
		{768, 768, 768}, {3072, 768, 768}, // Fig. 18
	}
	// Fig. 10: the four layer GEMMs (qkv, out, ffn1, ffn2) at the prefill
	// token counts of BERT and OPT (8 × 128) and ViT (8 × 197), and at OPT's
	// decode step (8).
	for _, mk := range [][2]int{{2304, 768}, {768, 768}, {3072, 768}, {768, 3072}} {
		for _, n := range []int{1024, 1576, 8} {
			shapes = append(shapes, [3]int{mk[0], mk[1], n})
		}
	}
	type planCheck struct {
		sys  *System
		f    Format
		sh   [3]int
		opts []GEMMOption
		name string
	}
	cyclesOnly, functional := NewSystem(WithCyclesOnly()), NewSystem()
	var cases []planCheck
	budget := cyclesOnly.engine.Cfg.WRAMLUTBudget()
	for _, f := range Formats {
		limits, err := cyclesOnly.ChoosePlan(f, 3072, 768, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, tiling := range []struct {
			name string
			opts []GEMMOption
		}{{"default", nil}, {"paper", []GEMMOption{WithPaperTiling()}}} {
			for i, sh := range shapes {
				cases = append(cases, planCheck{cyclesOnly, f, sh, tiling.opts, tiling.name + " tiling"})
				if i == 0 {
					cases = append(cases, planCheck{functional, f, sh, tiling.opts, tiling.name + " tiling, functional"})
				}
			}
			// Fig. 13: for each k, the highest p whose tables fit the bank
			// and whose k slice pairs fit the WRAM LUT budget, forced to
			// stream.
			for _, k := range []int{1, 2, 4, 8} {
				p := 0
				for cand := 1; cand <= limits.PDRAM; cand++ {
					if c, err := LUTCapacity(f, cand); err == nil && int64(k)*c.SliceBytes <= budget {
						p = cand
					}
				}
				if p == 0 {
					continue
				}
				opts := append([]GEMMOption{WithPackingDegree(p), WithSliceK(k), WithStreaming()}, tiling.opts...)
				cases = append(cases, planCheck{cyclesOnly, f, [3]int{3072, 768, 128}, opts,
					fmt.Sprintf("%s tiling, forced p=%d k=%d streaming", tiling.name, p, k)})
			}
		}
	}
	for _, c := range cases {
		m, k, n := c.sh[0], c.sh[1], c.sh[2]
		plan, err := c.sys.ChoosePlan(c.f, m, k, n, c.opts...)
		if err != nil {
			t.Fatalf("%s %dx%dx%d %s: %v", c.f.Name(), m, k, n, c.name, err)
		}
		res, err := c.sys.GEMM(c.f, m, k, n, DesignLoCaLUT, c.opts...)
		if err != nil {
			t.Fatalf("%s %dx%dx%d %s: %v", c.f.Name(), m, k, n, c.name, err)
		}
		if plan.P != res.P || plan.Streaming != res.Streaming || plan.SliceK != res.SliceK ||
			plan.PredictedSeconds != res.TotalSeconds {
			t.Errorf("%s %dx%dx%d %s: planned p=%d streaming=%v k=%d %v s, ran p=%d streaming=%v k=%d %v s",
				c.f.Name(), m, k, n, c.name, plan.P, plan.Streaming, plan.SliceK, plan.PredictedSeconds,
				res.P, res.Streaming, res.SliceK, res.TotalSeconds)
		}
	}
}

func TestGEMMEndToEnd(t *testing.T) {
	sys := NewSystem(WithSeed(7))
	naive, err := sys.GEMM(W1A3, 256, 256, 8, DesignNaive, WithPaperTiling())
	if err != nil {
		t.Fatal(err)
	}
	loca, err := sys.GEMM(W1A3, 256, 256, 8, DesignLoCaLUT, WithPaperTiling())
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Verified || !loca.Verified {
		t.Fatal("verification failed")
	}
	if loca.TotalSeconds >= naive.TotalSeconds {
		t.Errorf("LoCaLUT %.3e not faster than naive %.3e", loca.TotalSeconds, naive.TotalSeconds)
	}
	if loca.EnergyJ <= 0 || naive.EnergyJ <= 0 {
		t.Error("energy not priced")
	}
}

func TestGEMMOptions(t *testing.T) {
	sys := NewSystem()
	res, err := sys.GEMM(W1A3, 64, 64, 4, DesignLoCaLUT,
		WithPackingDegree(6), WithSliceK(2), WithStreaming(), WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 6 || res.SliceK != 2 || !res.Streaming {
		t.Errorf("options not honored: %+v", res)
	}
	if len(res.Output) != 64*4 {
		t.Errorf("full output missing: %d", len(res.Output))
	}
}

func TestQuantizeAndGEMMQuantized(t *testing.T) {
	data := make([]float64, 32*16)
	for i := range data {
		data[i] = math.Sin(float64(i))
	}
	w, err := Quantize(data, 32, 16, W2A2, Weights)
	if err != nil {
		t.Fatal(err)
	}
	aData := make([]float64, 16*4)
	for i := range aData {
		aData[i] = math.Cos(float64(i))
	}
	a, err := Quantize(aData, 16, 4, W2A2, Activations)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := w.Shape()
	if rows != 32 || cols != 16 {
		t.Errorf("shape %dx%d", rows, cols)
	}
	if w.Scale() <= 0 {
		t.Error("scale")
	}
	if len(w.Dequantize()) != 32*16 {
		t.Error("dequantize length")
	}
	res, err := sysGEMMQuantized(t, w, a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("not verified")
	}
	// Shape mismatch must be rejected.
	if _, err := NewSystem().GEMMQuantized(w, w, DesignOP); err == nil {
		t.Error("accepted mismatched shapes")
	}
}

func sysGEMMQuantized(t *testing.T, w, a *Tensor) (*GEMMResult, error) {
	t.Helper()
	return NewSystem().GEMMQuantized(w, a, DesignLoCaLUT)
}

func TestInferBERT(t *testing.T) {
	sys := NewSystem(WithRanks(4)) // smaller machine keeps the test fast
	res, err := sys.Infer(BERTBase, W1A3, DesignLoCaLUT, InferOptions{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSeconds <= 0 || res.Prefill.GEMMPIM <= 0 {
		t.Errorf("result %+v", res)
	}
	if res.Decode.Total != 0 {
		t.Error("encoder model produced a decode phase")
	}
}

func TestInferOPTDecode(t *testing.T) {
	sys := NewSystem(WithRanks(4))
	res, err := sys.Infer(OPT125M, W4A4, DesignLoCaLUT, InferOptions{Batch: 1, OutTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decode.Total <= 0 {
		t.Error("decoder model missing decode phase")
	}
	if math.Abs(res.TotalSeconds-(res.Prefill.Total+res.Decode.Total)) > 1e-12 {
		t.Error("phase totals inconsistent")
	}
}

func TestWithLUTBudgetCapacityTradeoff(t *testing.T) {
	// §VII-B: shrinking the LUT capacity budget must lower the feasible
	// packing degree and cost performance — the capacity-performance
	// tradeoff is tunable end to end.
	full := NewSystem()
	constrained := NewSystem(WithLUTBudget(0.05)) // ~3.2 MB bank budget
	pf, err := full.ChoosePlan(W1A3, 3072, 768, 128)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := constrained.ChoosePlan(W1A3, 3072, 768, 128)
	if err != nil {
		t.Fatal(err)
	}
	if pc.PDRAM >= pf.PDRAM {
		t.Errorf("constrained p_DRAM %d should be below full %d", pc.PDRAM, pf.PDRAM)
	}
	if pc.PredictedSeconds <= pf.PredictedSeconds {
		t.Errorf("constrained predicted %.3g should exceed full %.3g",
			pc.PredictedSeconds, pf.PredictedSeconds)
	}
	rf, err := full.GEMM(W1A3, 512, 256, 4, DesignLoCaLUT, WithPaperTiling())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := constrained.GEMM(W1A3, 512, 256, 4, DesignLoCaLUT, WithPaperTiling())
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Verified || rc.TotalSeconds <= rf.TotalSeconds {
		t.Errorf("constrained GEMM %.3g should be slower than full %.3g (verified=%v)",
			rc.TotalSeconds, rf.TotalSeconds, rc.Verified)
	}

	// An invalid budget must surface as an error naming the field, not a
	// panic or a costmodel error about packing degrees.
	for _, frac := range []float64{0, math.NaN(), math.Inf(1)} {
		bad := NewSystem(WithLUTBudget(frac))
		_, gemmErr := bad.GEMM(W1A3, 64, 64, 4, DesignLoCaLUT)
		_, planErr := bad.ChoosePlan(W1A3, 64, 64, 4)
		for _, err := range []error{gemmErr, planErr} {
			if err == nil || !strings.Contains(err.Error(), "LUTBudgetFrac") {
				t.Errorf("LUT budget %g: error %v, want one naming LUTBudgetFrac", frac, err)
			}
		}
	}
}

func TestModelNames(t *testing.T) {
	if BERTBase.String() != "BERT-base" || OPT125M.String() != "OPT-125M" || ViTBase.String() != "ViT-Base" {
		t.Error("model names")
	}
}
