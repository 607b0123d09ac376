package kernels

import (
	"fmt"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
)

// NaiveKernel is conventional PIM: the in-order core performs every MAC with
// its native 8-bit multiplier. The host pre-decodes the quantized codes to
// int8 values (all evaluated formats fit int8), ships W row-major and A
// column-major, and the device streams weight rows against WRAM-staged
// activation columns.
type NaiveKernel struct {
	Costs Costs
}

// NewNaiveKernel returns the baseline kernel with the given cost table.
func NewNaiveKernel(c Costs) *NaiveKernel { return &NaiveKernel{Costs: c} }

func (k *NaiveKernel) Name() string { return Naive.String() }

// Run executes the tile. The DPU must be freshly reset.
func (k *NaiveKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *NaiveKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()

	// Host-side staging into the bank (uncharged here; the orchestrator
	// charges the host->PIM link for these bytes).
	wSeg, err := d.MRAM.Alloc("W", int64(t.M*t.K))
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	aSeg, err := d.MRAM.Alloc("A", int64(t.K*t.N))
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	oSeg, err := d.MRAM.Alloc("O", int64(t.M*t.N*4))
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	if !cost {
		// Decode through workspace tables: one load per element instead of
		// a per-element Decode call (bit-identical, Decode masks its input).
		wt := decodeTable(&ws.wdecT, t.Fmt.Weight)
		wMask := t.Fmt.Weight.Mask()
		for i, c := range t.W {
			wSeg.Data[i] = byte(int8(wt[uint32(c)&wMask]))
		}
		// A column-major so device column DMAs are contiguous.
		at := decodeTable(&ws.adecT, t.Fmt.Act)
		aMask := t.Fmt.Act.Mask()
		for kk := 0; kk < t.K; kk++ {
			arow := t.A[kk*t.N : (kk+1)*t.N]
			for n, c := range arow {
				aSeg.Data[n*t.K+kk] = byte(int8(at[uint32(c)&aMask]))
			}
		}
	}

	// Device WRAM staging: one weight row, a chunk of activation columns,
	// and one output row chunk.
	nc := (d.WRAM.Capacity() - t.K - 4096) / t.K
	if nc < 1 {
		nc = 1
	}
	if nc > t.N {
		nc = t.N
	}
	wRow, err := d.WRAM.Alloc("wrow", t.K)
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	aChunk, err := d.WRAM.Alloc("acols", nc*t.K)
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	oRow, err := d.WRAM.Alloc("orow", nc*4)
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}

	x := ws.newBK(d)
	for n0 := 0; n0 < t.N; n0 += nc {
		ncols := nc
		if n0+ncols > t.N {
			ncols = t.N - n0
		}
		if err := dmaIn(d, aSeg, int64(n0*t.K), aChunk, ncols*t.K); err != nil {
			return nil, err
		}
		x.charge(&x.b.Transfer)

		for m := 0; m < t.M; m++ {
			if err := dmaIn(d, wSeg, int64(m*t.K), wRow, t.K); err != nil {
				return nil, err
			}
			x.charge(&x.b.Transfer)

			// The per-column charge sequence is a linear function of the trip
			// count, so the cost program folds the ncols columns into one
			// batch of identical totals.
			if cost {
				d.Exec(pim.EvInstr, int64(ncols)*int64(t.K)*k.Costs.NaiveMACInstr)
				d.Exec(pim.EvMul8, int64(ncols)*int64(t.K))
				d.Note(pim.EvWRAMAccess, int64(ncols)*int64(2*t.K))
			} else {
				for j := 0; j < ncols; j++ {
					acol := aChunk.Data[j*t.K : (j+1)*t.K]
					var acc int32
					for kk := 0; kk < t.K; kk++ {
						acc += int32(int8(wRow.Data[kk])) * int32(int8(acol[kk]))
					}
					lut.WriteEntry(oRow.Data, j, 4, acc)
					d.Exec(pim.EvInstr, int64(t.K)*k.Costs.NaiveMACInstr)
					d.Exec(pim.EvMul8, int64(t.K))
					d.Note(pim.EvWRAMAccess, int64(2*t.K))
				}
			}
			x.charge(&x.b.Accumulate)
			if err := dmaOut(d, oSeg, int64((m*t.N+n0)*4), oRow, ncols*4); err != nil {
				return nil, err
			}
			x.charge(&x.b.Other)
		}
	}

	// Read the output back out of the bank image (host gather is charged
	// by the orchestrator).
	if !cost {
		for i := 0; i < t.M*t.N; i++ {
			t.O[i] = lut.ReadEntry(oSeg.Data, i, 4)
		}
	}
	return x.result(Naive, lut.Spec{}, 0, 0), nil
}
