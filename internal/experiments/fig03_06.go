package experiments

import (
	"fmt"

	"github.com/ais-snu/localut/internal/costmodel"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/trace"
)

// Fig03 regenerates Fig. 3(c): DRAM-bank-sized vs buffer-sized
// operation-packed LUTs on a 512x512x512 W1A3 GEMM over packing degrees
// 1..6, on a single DPU as in the paper's small-scale experiment.
func (s *Suite) Fig03() (*Result, error) {
	f := quant.W1A3
	m := s.scale(512, 64)
	k := s.scale(512, 64)
	nFull := s.scale(512, 64)
	nSim := s.scale(4, 2) // columns simulated; cost is column-linear

	cfg := s.Engine.Cfg
	costs := s.Engine.Costs
	tab := trace.NewTable("LUT placement (W1A3, 512x512x512 GEMM, single DPU)",
		"p", "DRAM-sized LUT (s)", "buffer-sized LUT (s)")
	res := newResult("fig03", "capacity-computation candidates (Fig. 3c)", tab)

	scale := float64(nFull) / float64(nSim)
	pBufMax := costmodel.MaxP(f, cfg.WRAMLUTBudget(), kernels.OP)
	var dramAtPBuf, bufAtPBuf float64
	for p := 1; p <= 6; p++ {
		tile, err := s.kernelTile(m, k, nSim, f)
		if err != nil {
			return nil, err
		}
		dpu := s.kernelDPU(&cfg)
		dram, err := kernels.NewOPDRAMKernel(costs, lut.MustSpec(f, p)).Run(dpu, tile)
		if err != nil {
			return nil, err
		}
		dramSec := dram.Seconds * scale

		bufCell := "n/a (exceeds WRAM)"
		if p <= pBufMax {
			dpu2 := s.kernelDPU(&cfg)
			buf, err := kernels.NewOPKernel(costs, lut.MustSpec(f, p)).Run(dpu2, tile)
			if err != nil {
				return nil, err
			}
			bufSec := buf.Seconds * scale
			bufCell = fmt.Sprintf("%.4f", bufSec)
			if p == pBufMax {
				dramAtPBuf, bufAtPBuf = dramSec, bufSec
			}
		}
		tab.Add(p, dramSec, bufCell)
	}
	if bufAtPBuf > 0 {
		ratio := dramAtPBuf / bufAtPBuf
		res.Values["dram_over_buffer_at_plocal"] = ratio
		res.notef("at p_local=%d the buffer-sized LUT is %.2fx faster than the DRAM-sized LUT (paper: buffer wins at every p)", pBufMax, ratio)
	}
	return res, nil
}

// Fig06 regenerates Fig. 6: capacity requirements of the operation-packed,
// canonical and reordering LUTs for W1A3 across packing degrees, with the
// total reduction rate (the figure's red line).
func (s *Suite) Fig06() (*Result, error) {
	f := quant.W1A3
	tab := trace.NewTable("LUT capacity, W1A3 (bytes)",
		"p", "operation-packed", "canonical", "reordering", "canonical+reordering", "reduction rate")
	res := newResult("fig06", "LUT capacity vs packing degree (Fig. 6)", tab)

	for p := 2; p <= 8; p++ {
		spec := lut.MustSpec(f, p)
		tab.Add(p,
			fmt.Sprintf("%d", spec.OpPackedBytes()),
			fmt.Sprintf("%d", spec.CanonicalBytes()),
			fmt.Sprintf("%d", spec.ReorderBytes()),
			fmt.Sprintf("%d", spec.CombinedBytes()),
			spec.ReductionRate())
	}
	r2 := lut.MustSpec(f, 2).ReductionRate()
	r8 := lut.MustSpec(f, 8).ReductionRate()
	res.Values["reduction_p2"] = r2
	res.Values["reduction_p8"] = r8
	res.notef("total reduction spans %.2fx (p=2) to %.0fx (p=8); paper: 1.68x to 358x", r2, r8)
	return res, nil
}
