package costmodel

import (
	"fmt"
	"math"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// Model holds the profiled constants of §VI-I plus the instruction split
// that refines L_local for the slice-streaming kernel's register-level
// output reuse (larger k amortizes the output update).
type Model struct {
	// LD is the time to stream one byte of a LUT slice from the DRAM bank
	// into the local buffer (seconds). 1.36e-9 s/B is ~735 MB/s, matching
	// measured UPMEM MRAM->WRAM DMA bandwidth; Eq. 2 as printed charges it
	// per slice entry, which coincides for the 1-byte-entry W1Ax tables
	// the paper leads with.
	LD float64
	// LLocal is the time for one reordering lookup + one canonical lookup
	// + accumulation (the RCInstr instructions of §VI-I), in seconds.
	LLocal float64
	// RCInstr, StreamBaseInstr and OutUpdateInstr are the kernel cost
	// table's instruction split: the buffer-resident group costs RCInstr;
	// the streaming group costs StreamBaseInstr + OutUpdateInstr/k.
	RCInstr, StreamBaseInstr, OutUpdateInstr float64
}

// Default returns the UPMEM-profiled constants of the paper, with the
// instruction split read from kernels.DefaultCosts.
func Default() Model {
	c := kernels.DefaultCosts()
	return Model{
		LD: 1.36e-9, LLocal: 3.27e-8,
		RCInstr:         float64(c.RCGroupInstr()),
		StreamBaseInstr: float64(c.RCGroupInstr() - c.RCAccumInstr + c.RCStreamRegInstr),
		OutUpdateInstr:  float64(c.RCOutUpdateInstr),
	}
}

// StreamTimeBytes is the byte-accurate refinement of Eq. 2 that Choose
// prices streaming with: the slice term is charged per byte of the
// canonical+reordering entry pair and L_local is scaled for the
// register-level output reuse the slice batch k provides.
func (m Model) StreamTimeBytes(spec lut.Spec, M, K, N, k int) float64 {
	groups := float64(K) * float64(N) / float64(spec.P)
	sliceBytes := float64(spec.SliceBytes())
	local := m.LLocal * (m.StreamBaseInstr + m.OutUpdateInstr/float64(k)) / m.RCInstr
	return sliceBytes*groups*m.LD + float64(M)*groups*local
}

// BufferTime evaluates Eq. 4: the buffer-resident time at packing degree
// pLocal (no slice loading term).
func (m Model) BufferTime(pLocal, M, K, N int) float64 {
	if pLocal < 1 {
		return math.Inf(1)
	}
	return float64(M) * float64(K) * float64(N) / float64(pLocal) * m.LLocal
}

// MaxP returns the largest packing degree at which the packed-LUT design v's
// footprint (kernels.TableBytes) fits the byte budget and stays buildable, or
// 0 if even p=1 does not fit.
func MaxP(f quant.Format, budget int64, v kernels.Variant) int {
	best := 0
	for p := 1; ; p++ {
		s, err := lut.NewSpec(f, p)
		if err != nil {
			break
		}
		size := kernels.TableBytes(v, s)
		if size > budget || size > lut.MaxBuildBytes {
			// Footprints grow monotonically in p; stop at first overflow.
			break
		}
		best = p
	}
	return best
}

// Choice is the configuration the model selects for one GEMM shape.
type Choice struct {
	// P is the chosen packing degree.
	P int
	// Streaming reports whether LUT slice streaming is used; when false
	// the LUTs are buffer-resident at P = pLocal.
	Streaming bool
	// K is the slice batch (1 when not streaming).
	K int
	// PredictedSeconds is the model-predicted kernel time for the shape.
	PredictedSeconds float64
}

// Choose runs the §IV-D selection for a LoCaLUT GEMM of shape M x K x N:
// it compares Eq. 4 (BufferTime) at p_local against StreamTimeBytes, Eq. 2's
// byte-accurate refinement, for every p_local < p <= p_DRAM, each at the
// largest k in {8,4,2,1} whose slice pairs fit the WRAM LUT budget (larger k
// only improves output reuse), and picks the minimum.
func Choose(m Model, f quant.Format, M, K, N int, cfg *pim.Config) (Choice, error) {
	if M <= 0 || K <= 0 || N <= 0 {
		return Choice{}, fmt.Errorf("costmodel: invalid GEMM shape %dx%dx%d", M, K, N)
	}
	pLocal := MaxP(f, cfg.WRAMLUTBudget(), kernels.LoCaLUT)
	pDRAM := MaxP(f, cfg.MRAMLUTBudget(), kernels.LoCaLUT)
	if pDRAM == 0 {
		return Choice{}, fmt.Errorf("costmodel: no packing degree fits the MRAM budget for %s", f.Name())
	}

	best := Choice{PredictedSeconds: math.Inf(1)}

	// Buffer-resident candidate (Eq. 4).
	if pLocal >= 1 {
		if t := m.BufferTime(pLocal, M, K, N); t < best.PredictedSeconds {
			best.P = pLocal
			best.Streaming = false
			best.K = 1
			best.PredictedSeconds = t
		}
	}
	// Streaming candidates, each with the largest k whose slice pairs fit
	// the WRAM LUT budget. Slice streaming exists to "extend the effective
	// packing degree beyond what buffer-sized LUTs can support" (§IV-C),
	// so only p > p_local engages it; within the buffer range the buffer
	// design is used directly.
	for p := pLocal + 1; p <= pDRAM; p++ {
		spec, err := lut.NewSpec(f, p)
		if err != nil {
			break
		}
		k := MaxSliceK(spec, cfg)
		if k < 1 {
			continue // even one slice pair does not fit WRAM
		}
		if t := m.StreamTimeBytes(spec, M, K, N, k); t < best.PredictedSeconds {
			best.P = p
			best.Streaming = true
			best.K = k
			best.PredictedSeconds = t
		}
	}
	if best.P == 0 {
		return Choice{}, fmt.Errorf("costmodel: no feasible configuration for %s at %dx%dx%d",
			f.Name(), M, K, N)
	}
	return best, nil
}

// MaxSliceK returns the largest slice batch in {8,4,2,1} whose slice pairs
// fit the WRAM LUT budget at the given spec, or 0 if none fit.
func MaxSliceK(spec lut.Spec, cfg *pim.Config) int {
	for _, k := range []int{8, 4, 2, 1} {
		if int64(k)*spec.SliceBytes() <= cfg.WRAMLUTBudget() {
			return k
		}
	}
	return 0
}

// ChooseForVariant picks the packing degree for the non-streaming design
// points of §VI-A (OP, OP+LC, OP+LC+RC): the largest p whose tables fit the
// WRAM budget.
func ChooseForVariant(f quant.Format, v kernels.Variant, cfg *pim.Config) (int, error) {
	p := MaxP(f, cfg.WRAMLUTBudget(), v)
	if p == 0 {
		return 0, fmt.Errorf("costmodel: no packing degree of %v fits WRAM for %s", v, f.Name())
	}
	return p, nil
}
