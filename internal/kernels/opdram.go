package kernels

import (
	"fmt"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// OPDRAMKernel is the Fig. 3(a) candidate design: the operation-packed LUT
// resides in the DRAM bank (allowing packing degrees up to p_DRAM) and
// every group lookup issues an individual MRAM access. The per-lookup DMA
// setup cost is exactly what makes this design lose to the buffer-sized
// LUT in Fig. 3(c), motivating LoCaLUT's buffer-centric base design.
type OPDRAMKernel struct {
	Costs Costs
	Spec  lut.Spec
}

// NewOPDRAMKernel returns the DRAM-resident OP design.
func NewOPDRAMKernel(c Costs, spec lut.Spec) *OPDRAMKernel {
	return &OPDRAMKernel{Costs: c, Spec: spec}
}

func (k *OPDRAMKernel) Name() string     { return "OP(DRAM)" }
func (k *OPDRAMKernel) Variant() Variant { return OP }

func (k *OPDRAMKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *OPDRAMKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	spec := k.Spec
	bo := spec.EntryBytes()
	lutBytes := spec.OpPackedBytes()
	if lutBytes > d.Cfg.MRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: OP(DRAM) LUT %s needs %d bytes, MRAM LUT budget is %d",
			spec, lutBytes, d.Cfg.MRAMLUTBudget())
	}

	recBytes := byteWidthFor(spec.OpCols() * int64(bo))
	aBits := spec.Fmt.Act.Bits
	codes := grow(&ws.codes, spec.P)
	st, err := stageCommon(d, t, spec, recBytes, ws, func(rec []byte, actCodes []int) error {
		for i, c := range actCodes {
			codes[i] = uint32(c)
		}
		a := quant.PackVector(codes, aBits)
		lut.WriteUint(rec, 0, recBytes, a*uint32(bo))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP(DRAM): %w", err)
	}

	lutSeg, err := lutSegment(d, "LUT", lutBytes, func() ([]byte, error) {
		table, err := lut.CachedOpPacked(spec)
		if err != nil {
			return nil, err
		}
		return table.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP(DRAM): %w", err)
	}

	g := st.groups
	metaBuf, err := d.WRAM.Alloc("meta", g*recBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP(DRAM): %w", err)
	}
	wBuf, err := d.WRAM.Alloc("wchunk", wChunk*st.rowBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP(DRAM): %w", err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP(DRAM): %w (tile M too large)", err)
	}
	var acc []int32
	var wcodes []uint32
	if !cost {
		acc = grow(&ws.acc, t.M)
		wcodes = grow(&ws.wcodes, wChunk)
	}

	rowStride := int64(spec.OpCols()) * int64(bo)
	entry := grow(&ws.entry, bo)
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

		for gi := 0; gi < g; gi++ {
			var aOff int64
			if !cost {
				aOff = int64(lut.ReadUint(metaBuf.Data, gi, recBytes))
			}
			for m0 := 0; m0 < t.M; m0 += wChunk {
				mc := wChunk
				if m0+mc > t.M {
					mc = t.M - m0
				}
				if err := dmaIn(d, st.wSeg, int64((gi*t.M+m0)*st.rowBytes),
					wBuf, mc*st.rowBytes); err != nil {
					return nil, err
				}
				x.charge(&x.b.Transfer)

				// Per-lookup MRAM access: the defining cost of this design
				// point. Entry addresses are data-dependent but every access
				// moves the same bo bytes, so the cost program folds the mc
				// lookups into one aggregate charge of identical cycles.
				if cost {
					if err := d.ChargeDMAReads(lutSeg, int64(mc), int64(bo)); err != nil {
						return nil, err
					}
				} else {
					// The chunk's packed codes are decoded burst-wide; the
					// per-element DMARead stays — it is this design's
					// defining cost and each transfer must charge the meter
					// individually sized.
					wc := wcodes[:mc]
					decodeCodes(wc, wBuf.Data, mc, st.rowBytes)
					for m, w := range wc {
						if err := d.DMARead(lutSeg, int64(w)*rowStride+aOff, entry); err != nil {
							return nil, err
						}
						acc[m0+m] += lut.ReadEntry(entry, 0, bo)
					}
				}
				x.charge(&x.b.LUTLoad)
				d.Exec(pim.EvInstr, int64(mc)*k.Costs.OPGroupInstr)
				d.Note(pim.EvWRAMAccess, int64(mc)*4)
				x.charge(&x.b.CanonAccess)
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
	return x.result(OP, spec, spec.P, 0), nil
}
