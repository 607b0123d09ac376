package experiments

import (
	"fmt"

	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/trace"
)

// fig09Shapes are the two representative GEMM shapes of §VI-B.
func (s *Suite) fig09Shapes() [][3]int {
	if s.Quick {
		return [][3]int{{192, 192, 16}, {768, 192, 16}}
	}
	return [][3]int{{768, 768, 128}, {3072, 768, 128}}
}

// Fig09 regenerates Fig. 9: GEMM speedups of every design point over Naive
// PIM across the four quantization settings and two matrix shapes.
func (s *Suite) Fig09() (*Result, error) {
	tab := trace.NewTable("GEMM speedup over Naive PIM",
		"shape", "format", "NaivePIM", "LTC", "OP", "OP+LC", "OP+LC+RC", "LoCaLUT")
	res := newResult("fig09", "GEMM performance comparison (Fig. 9)", tab)

	var overNaive, overLTC []float64
	maxNaive, maxLTC := 0.0, 0.0
	for _, sh := range s.fig09Shapes() {
		for _, f := range quant.Formats {
			totals := map[kernels.Variant]float64{}
			for _, v := range kernels.Variants {
				rep, err := s.runGEMM(sh[0], sh[1], sh[2], f, v, gemm.Options{})
				if err != nil {
					return nil, err
				}
				totals[v] = rep.Total
			}
			sp := func(v kernels.Variant) float64 { return totals[kernels.Naive] / totals[v] }
			tab.Add(fmt.Sprintf("(%d,%d,%d)", sh[0], sh[1], sh[2]), f.Name(),
				1.0, sp(kernels.LTC), sp(kernels.OP), sp(kernels.OPLC),
				sp(kernels.OPLCRC), sp(kernels.LoCaLUT))
			overNaive = append(overNaive, sp(kernels.LoCaLUT))
			ltcRatio := totals[kernels.LTC] / totals[kernels.LoCaLUT]
			overLTC = append(overLTC, ltcRatio)
			if sp(kernels.LoCaLUT) > maxNaive {
				maxNaive = sp(kernels.LoCaLUT)
			}
			if ltcRatio > maxLTC {
				maxLTC = ltcRatio
			}
		}
	}
	gmN := trace.Geomean(overNaive)
	gmL := trace.Geomean(overLTC)
	res.Values["geomean_over_naive"] = gmN
	res.Values["geomean_over_ltc"] = gmL
	res.Values["max_over_naive"] = maxNaive
	res.Values["max_over_ltc"] = maxLTC
	res.notef("LoCaLUT geomean %.2fx over Naive (paper: 2.87x), %.2fx over LTC (paper: 1.77x)", gmN, gmL)
	res.notef("max %.2fx over Naive (paper: 4.73x), %.2fx over LTC (paper: 1.93x)", maxNaive, maxLTC)
	return res, nil
}

// fig10Configs are the model/format pairs of §VI-C.
type modelFormat struct {
	model string
	fmt   quant.Format
}

func fig10Configs() []modelFormat {
	return []modelFormat{
		{"BERT", quant.W1A3}, {"BERT", quant.W1A4}, {"BERT", quant.W2A2}, {"BERT", quant.W4A4},
		{"ViT", quant.W2A2}, {"ViT", quant.W4A4},
		{"OPT", quant.W4A4},
	}
}

// Fig10 regenerates Fig. 10: end-to-end model speedups over Naive PIM for
// {Naive, LTC, OP, LoCaLUT}.
func (s *Suite) Fig10() (*Result, error) {
	tab := trace.NewTable("End-to-end speedup over Naive PIM",
		"model", "format", "NaivePIM", "LTC", "OP", "LoCaLUT")
	res := newResult("fig10", "representative DNN workloads (Fig. 10)", tab)

	variants := []kernels.Variant{kernels.Naive, kernels.LTC, kernels.OP, kernels.LoCaLUT}
	var overNaive, overLTC, overOP []float64
	for _, mf := range fig10Configs() {
		totals := map[kernels.Variant]float64{}
		for _, v := range variants {
			rep, err := s.runModel(mf.model, mf.fmt, v)
			if err != nil {
				return nil, err
			}
			totals[v] = rep.Total
		}
		sp := func(v kernels.Variant) float64 { return totals[kernels.Naive] / totals[v] }
		tab.Add(mf.model, mf.fmt.Name(), 1.0, sp(kernels.LTC), sp(kernels.OP), sp(kernels.LoCaLUT))
		overNaive = append(overNaive, sp(kernels.LoCaLUT))
		overLTC = append(overLTC, totals[kernels.LTC]/totals[kernels.LoCaLUT])
		overOP = append(overOP, totals[kernels.OP]/totals[kernels.LoCaLUT])
		res.Values[fmt.Sprintf("speedup_%s_%s", mf.model, mf.fmt.Name())] = sp(kernels.LoCaLUT)
		res.Values[fmt.Sprintf("over_op_%s_%s", mf.model, mf.fmt.Name())] =
			totals[kernels.OP] / totals[kernels.LoCaLUT]
	}
	gmN, gmL, gmOP := trace.Geomean(overNaive), trace.Geomean(overLTC), trace.Geomean(overOP)
	res.Values["geomean_over_naive"] = gmN
	res.Values["geomean_over_ltc"] = gmL
	res.Values["geomean_over_op"] = gmOP
	res.notef("end-to-end geomean %.2fx over Naive (paper: 1.77x), %.2fx over LTC (paper: 1.82x)", gmN, gmL)
	res.notef("optimizations add %.0f%% over OP (paper: 22%%)", (gmOP-1)*100)
	return res, nil
}

// Fig11 regenerates Fig. 11: LoCaLUT speedup over Naive PIM while sweeping
// the weight matrix dimensions (N = 128), for W1A3 and W2A2.
func (s *Suite) Fig11() (*Result, error) {
	dims := []int{128, 256, 512, 768, 1024}
	n := 128
	if s.Quick {
		dims = []int{128, 256}
		n = 16
	}
	tab := trace.NewTable("LoCaLUT speedup over Naive PIM (N=128)",
		"format", "M", "K", "speedup")
	res := newResult("fig11", "matrix size sensitivity (Fig. 11)", tab)

	var all []float64
	for _, f := range []quant.Format{quant.W1A3, quant.W2A2} {
		var sub []float64
		for _, m := range dims {
			for _, k := range dims {
				naive, err := s.runGEMM(m, k, n, f, kernels.Naive, gemm.Options{})
				if err != nil {
					return nil, err
				}
				loca, err := s.runGEMM(m, k, n, f, kernels.LoCaLUT, gemm.Options{})
				if err != nil {
					return nil, err
				}
				sp := naive.Total / loca.Total
				tab.Add(f.Name(), m, k, sp)
				sub = append(sub, sp)
				all = append(all, sp)
			}
		}
		res.Values["geomean_"+f.Name()] = trace.Geomean(sub)
	}
	gm := trace.Geomean(all)
	res.Values["geomean"] = gm
	lo, hi := trace.MinMax(all)
	res.notef("geomean speedup %.2fx across all matrix sizes (paper: 2.86x); range %.2fx-%.2fx, consistently > 1", gm, lo, hi)
	return res, nil
}

// Fig12 regenerates Fig. 12: packing-degree sensitivity under W2A2 with
// K=768, N=128 and M in {192, 768, 3072}: speedup over Naive PIM plus the
// LUT capacity at each p.
func (s *Suite) Fig12() (*Result, error) {
	f := quant.W2A2
	k := s.scale(768, 192)
	n := s.scale(128, 16)
	ms := []int{192, 768, 3072}
	if s.Quick {
		ms = []int{192, 768}
	}
	tab := trace.NewTable("Packing degree sensitivity (W2A2, K=768, N=128)",
		"M", "p", "capacity (B)", "streaming", "speedup over Naive")
	res := newResult("fig12", "p sensitivity (Fig. 12)", tab)

	for _, m := range ms {
		naive, err := s.runGEMM(m, k, n, f, kernels.Naive, gemm.Options{})
		if err != nil {
			return nil, err
		}
		var best float64
		bestP := 0
		for p := 1; p <= 6; p++ {
			spec := lut.MustSpec(f, p)
			streaming := spec.CombinedBytes() > s.Engine.Cfg.WRAMLUTBudget()
			rep, err := s.runGEMM(m, k, n, f, kernels.LoCaLUT,
				gemm.Options{ForceP: p, ForceStreaming: streaming})
			if err != nil {
				return nil, err
			}
			sp := naive.Total / rep.Total
			tab.Add(m, p, fmt.Sprintf("%d", spec.CombinedBytes()), streaming, sp)
			if sp > best {
				best, bestP = sp, p
			}
		}
		res.Values[fmt.Sprintf("best_p_M%d", m)] = float64(bestP)
		res.Values[fmt.Sprintf("best_speedup_M%d", m)] = best
	}
	res.notef("speedup grows with p and larger M benefits from higher p (paper: performance improves with M at p=6)")
	return res, nil
}
