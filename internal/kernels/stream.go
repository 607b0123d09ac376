package kernels

import (
	"fmt"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
)

// StreamKernel is the full LoCaLUT design (OP+LC+RC+SS, §IV-C): the
// canonical and reordering LUTs live in the DRAM bank at a packing degree up
// to p_DRAM, and for every batch of SliceK activation groups only the
// referenced LUT columns are DMA-streamed into WRAM, where they are reused
// across all M weight rows of the tile — the input-stationary-over-LUT-slice
// dataflow of Fig. 7.
type StreamKernel struct {
	Costs Costs
	Spec  lut.Spec
	// SliceK is the number of slice pairs kept resident in WRAM (the k of
	// §VI-D). Must be >= 1.
	SliceK int
}

// NewStreamKernel returns the kernel.
func NewStreamKernel(c Costs, spec lut.Spec, sliceK int) *StreamKernel {
	return &StreamKernel{Costs: c, Spec: spec, SliceK: sliceK}
}

func (k *StreamKernel) Name() string     { return LoCaLUT.String() }
func (k *StreamKernel) Variant() Variant { return LoCaLUT }

func (k *StreamKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *StreamKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	if k.SliceK < 1 {
		return nil, fmt.Errorf("kernels: LoCaLUT: SliceK %d < 1", k.SliceK)
	}
	spec := k.Spec
	bo := spec.EntryBytes()
	rb := spec.WeightRowBytes()
	rows := int(spec.Rows())

	// Both LUTs must fit the MRAM LUT budget.
	if spec.CombinedBytes() > d.Cfg.MRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: LoCaLUT LUTs %s need %d bytes, MRAM LUT budget is %d",
			spec, spec.CombinedBytes(), d.Cfg.MRAMLUTBudget())
	}
	// k slice pairs must fit the WRAM LUT budget.
	sliceBytes := rows * (bo + rb)
	if int64(k.SliceK*sliceBytes) > d.Cfg.WRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: LoCaLUT: k=%d slices of %d bytes exceed WRAM LUT budget %d",
			k.SliceK, sliceBytes, d.Cfg.WRAMLUTBudget())
	}

	colB := byteWidthFor(spec.CanonicalBytes())
	sigB := byteWidthFor(spec.ReorderBytes())
	recBytes := colB + sigB
	sorted := grow(&ws.sorted, spec.P)
	sperm := grow(&ws.sperm, spec.P)
	st, err := stageCommon(d, t, spec, recBytes, ws, func(rec []byte, actCodes []int) error {
		col, sigma, err := ws.canonicalize(spec, actCodes, sorted, sperm)
		if err != nil {
			return err
		}
		lut.WriteUint(rec, 0, colB, uint32(col)*uint32(rows*bo))
		lut.WriteUint(rec[colB:], 0, sigB, uint32(sigma)*uint32(rows*rb))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}

	canonSeg, err := lutSegment(d, "CanonLUT", spec.CanonicalBytes(), func() ([]byte, error) {
		canon, err := lut.CachedCanonical(spec)
		if err != nil {
			return nil, err
		}
		return canon.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}
	reorderSeg, err := lutSegment(d, "ReorderLUT", spec.ReorderBytes(), func() ([]byte, error) {
		reorder, err := lut.CachedReorder(spec)
		if err != nil {
			return nil, err
		}
		return reorder.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}

	// WRAM: k canonical slices, k reordering slices, metadata, streamed
	// weight chunks (one per resident slice so the chunk loop shares the
	// slice batch), and the output column accumulator.
	canonSlices, err := d.WRAM.Alloc("canonslices", k.SliceK*rows*bo)
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}
	reorderSlices, err := d.WRAM.Alloc("reorderslices", k.SliceK*rows*rb)
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}
	g := st.groups
	metaBuf, err := d.WRAM.Alloc("meta", g*recBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}
	wBuf, err := d.WRAM.Alloc("wchunk", k.SliceK*wChunk*rb)
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w", err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("kernels: LoCaLUT: %w (tile M too large)", err)
	}
	var acc []int32
	var wcodes []uint32
	if !cost {
		acc = grow(&ws.acc, t.M)
		wcodes = grow(&ws.wcodes, wChunk)
	}

	x := ws.newBK(d)
	for n := 0; n < t.N; n++ {
		n = x.foldColumns(n, t.N)
		if err := dmaIn(d, st.metaSeg, int64(n*g*recBytes), metaBuf, g*recBytes); err != nil {
			return nil, err
		}
		x.charge(&x.b.Transfer)
		if !cost {
			zeroAcc(acc)
		}
		d.Exec(pim.EvInstr, int64(t.M))
		x.charge(&x.b.Other)

		for g0 := 0; g0 < g; g0 += k.SliceK {
			kk := k.SliceK
			if g0+kk > g {
				kk = g - g0
			}
			// Stream the slice pairs for this group batch (step 3, Fig. 7).
			// The streamed addresses are data-dependent but every slice has
			// the same size, so the cost program folds the batch into two
			// aggregate charges of identical total cycles and bytes.
			if cost {
				if err := d.ChargeDMAReads(canonSeg, int64(kk), int64(rows*bo)); err != nil {
					return nil, err
				}
				if err := d.ChargeDMAReads(reorderSeg, int64(kk), int64(rows*rb)); err != nil {
					return nil, err
				}
			} else {
				for j := 0; j < kk; j++ {
					colOff := int64(lut.ReadUint(metaBuf.Data[(g0+j)*recBytes:], 0, colB))
					sigmaOff := int64(lut.ReadUint(metaBuf.Data[(g0+j)*recBytes+colB:], 0, sigB))
					if err := d.DMARead(canonSeg, colOff,
						canonSlices.Data[j*rows*bo:(j+1)*rows*bo]); err != nil {
						return nil, err
					}
					if err := d.DMARead(reorderSeg, sigmaOff,
						reorderSlices.Data[j*rows*rb:(j+1)*rows*rb]); err != nil {
						return nil, err
					}
				}
			}
			x.charge(&x.b.LUTLoad)

			// Stream weights and reuse the resident slices across M rows
			// (steps 4-6, Fig. 7).
			for m0 := 0; m0 < t.M; m0 += wChunk {
				mc := wChunk
				if m0+mc > t.M {
					mc = t.M - m0
				}
				if cost {
					if err := d.ChargeDMAReadSeq(st.wSeg, int64((g0*t.M+m0)*rb),
						int64(t.M*rb), int64(kk), int64(mc*rb)); err != nil {
						return nil, err
					}
				} else {
					for j := 0; j < kk; j++ {
						if err := d.DMARead(st.wSeg, int64(((g0+j)*t.M+m0)*rb),
							wBuf.Data[j*wChunk*rb:j*wChunk*rb+mc*rb]); err != nil {
							return nil, err
						}
					}
				}
				x.charge(&x.b.Transfer)

				// For each weight row, the kk resident slice pairs are
				// looked up back-to-back and accumulated in a register;
				// only one WRAM output update closes the row. This
				// register-level output reuse is what makes larger k pay
				// off (§VI-D, Fig. 13).
				//
				// The host walks the same lookups slice-by-slice: per
				// resident slice pair the burst's packed codes are decoded
				// once, translated through the reordering column in one
				// pass, and gathered from the canonical column straight
				// into the int32 accumulator. int32 addition commutes, so
				// the slice-major order produces bit-identical outputs to
				// the device's row-major register walk.
				if !cost {
					wc := wcodes[:mc]
					for j := 0; j < kk; j++ {
						decodeCodes(wc, wBuf.Data[j*wChunk*rb:], mc, rb)
						translateCodes(wc, reorderSlices.Data[j*rows*rb:], rb)
						gatherAccum(acc[m0:m0+mc], wc, canonSlices.Data[j*rows*bo:], bo, 0, bo)
					}
				}
				mk := int64(mc) * int64(kk)
				d.Exec(pim.EvInstr, mk*k.Costs.RCIdxCalcInstr)
				x.charge(&x.b.IdxCalc)
				d.Exec(pim.EvInstr, mk*k.Costs.RCReorderAccInstr)
				x.charge(&x.b.ReorderAccess)
				d.Exec(pim.EvInstr, mk*k.Costs.RCCanonAccInstr)
				x.charge(&x.b.CanonAccess)
				d.Exec(pim.EvInstr, mk*k.Costs.RCStreamRegInstr+int64(mc)*k.Costs.RCOutUpdateInstr)
				x.charge(&x.b.Accumulate)
				d.Note(pim.EvWRAMAccess, mk*3+int64(mc)*2)
			}
		}
		if !cost {
			flushAcc(acc, oBuf.Data)
		}
		if err := dmaOut(d, st.oSeg, int64(n*t.M*4), oBuf, t.M*4); err != nil {
			return nil, err
		}
		x.charge(&x.b.Other)
	}
	if !cost {
		st.readO(t)
	}
	return x.result(LoCaLUT, spec, spec.P, k.SliceK), nil
}
