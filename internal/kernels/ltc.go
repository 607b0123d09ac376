package kernels

import (
	"fmt"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// ltcGroup is the activation-group width of the bit-serial design: one
// lookup covers 4 activations per weight bit-plane, as in LUT Tensor Core
// and T-MAC.
const ltcGroup = 4

// LTCKernel adapts LUT Tensor Core's bit-serial mpGEMM to the DPU (§VI-A
// "we faithfully adapted its core ideas to our environment"). Weights are
// decomposed into bit-planes; for every activation column the device builds
// a 16-entry subset-sum table per group of 4 activations at runtime, then
// each weight bit-plane nibble indexes the table and the per-plane partial
// sums are shift-combined. The runtime table construction and the per-plane
// passes are exactly the overheads §II-B attributes to activation-driven
// LUT designs.
type LTCKernel struct {
	Costs Costs
}

// NewLTCKernel returns the LTC adaptation with the given cost table.
func NewLTCKernel(c Costs) *LTCKernel { return &LTCKernel{Costs: c} }

func (k *LTCKernel) Name() string { return LTC.String() }

// weightPlaneCoef returns the signed coefficient of bit-plane b and the
// column-sum correction coefficient for the tile's weight codec. A weight
// value decomposes as value = sum_b coef_b * bit_b + corr, so the output is
// O = sum_b coef_b * S_b + corr * colSum with S_b the plane partial sums.
//
// TwosSym is not bit-linear (its excluded minimum pattern decodes to 0), so
// the host re-encodes each weight value into plain two's complement before
// slicing planes (see planeBits); both then share the Twos coefficients.
func weightPlaneCoef(t *Tile, b int) (coef int32, corr int32) {
	c := t.Fmt.Weight
	switch c.Mode {
	case quant.Twos, quant.TwosSym:
		if b == c.Bits-1 {
			return -(1 << uint(b)), 0
		}
		return 1 << uint(b), 0
	case quant.Symmetric: // value = 2*code - (L-1)
		return 2 << uint(b), -int32(c.Levels() - 1)
	default: // quant.Unsigned
		return 1 << uint(b), 0
	}
}

// planeBits returns the bit pattern the host decomposes into planes for a
// weight code: the code itself for bit-linear codecs, or the value
// re-encoded as two's complement for TwosSym.
func planeBits(c quant.Codec, code uint8) uint8 {
	if c.Mode != quant.TwosSym {
		return code
	}
	return uint8(uint32(c.Decode(uint32(code))) & c.Mask())
}

// Run executes the tile. The DPU must be freshly reset.
func (k *LTCKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *LTCKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	bw := t.Fmt.Weight.Bits
	g4 := groupsOf(t.K, ltcGroup)
	planeRowBytes := (g4 + 1) / 2 // two 4-bit groups per byte

	// Host staging: weight bit-planes, m-major so one DMA fetches all bw
	// plane rows of a weight row; activation columns as int8 values with
	// the column-sum correction at the head of each record.
	wSeg, err := d.MRAM.Alloc("Wplanes", int64(t.M*bw*planeRowBytes))
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	colRec := 4 + t.K
	aSeg, err := d.MRAM.Alloc("Acols", int64(t.N*colRec))
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	oSeg, err := d.MRAM.Alloc("O", int64(t.M*t.N*4))
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	if !cost {
		// planeBits is a pure function of the code byte; tabulating it once
		// per run turns the per-element call (with its codec-mode branch)
		// into a load.
		pt := grow(&ws.planeT, 256)
		for i := range pt {
			pt[i] = planeBits(t.Fmt.Weight, uint8(i))
		}
		for m := 0; m < t.M; m++ {
			for b := 0; b < bw; b++ {
				base := (m*bw + b) * planeRowBytes
				for g := 0; g < g4; g++ {
					var nib byte
					for i := 0; i < ltcGroup; i++ {
						kk := g*ltcGroup + i
						if kk >= t.K {
							break
						}
						bit := (pt[t.W[m*t.K+kk]] >> uint(b)) & 1
						nib |= bit << uint(i)
					}
					if g%2 == 0 {
						wSeg.Data[base+g/2] |= nib
					} else {
						wSeg.Data[base+g/2] |= nib << 4
					}
				}
			}
		}
		at := decodeTable(&ws.adecT, t.Fmt.Act)
		aMask := t.Fmt.Act.Mask()
		for n := 0; n < t.N; n++ {
			base := n * colRec
			var colSum int32
			for kk := 0; kk < t.K; kk++ {
				v := at[uint32(t.A[kk*t.N+n])&aMask]
				aSeg.Data[base+4+kk] = byte(int8(v))
				colSum += v
			}
			lut.WriteEntry(aSeg.Data[base:], 0, 4, colSum)
		}
	}

	// WRAM: activation column record, subset-sum tables (2 B entries),
	// the current weight plane rows, and the output column accumulator.
	aBuf, err := d.WRAM.Alloc("acol", colRec)
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	tblBuf, err := d.WRAM.Alloc("tables", g4*16*2)
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	wBuf, err := d.WRAM.Alloc("wplanes", bw*planeRowBytes)
	if err != nil {
		return nil, fmt.Errorf("ltc: %w", err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("ltc: %w (tile M too large for WRAM column accumulator)", err)
	}

	x := ws.newBK(d)
	coefs := grow(&ws.coefs, bw)
	var corr int32
	for b := 0; b < bw; b++ {
		coefs[b], corr = weightPlaneCoef(t, b)
	}
	accs := grow(&ws.planeAcc, bw)

	for n := 0; n < t.N; n++ {
		n = x.foldColumns(n, t.N)
		if err := dmaIn(d, aSeg, int64(n*colRec), aBuf, colRec); err != nil {
			return nil, err
		}
		x.charge(&x.b.Transfer)
		var colSum int32
		if !cost {
			colSum = lut.ReadEntry(aBuf.Data, 0, 4)

			// Runtime table build: gray-code subset sums per activation
			// group, with the fixed 2-byte entry loads/stores inlined
			// (bit-identical to ReadEntry/WriteEntry at width 2).
			tbl := tblBuf.Data
			for g := 0; g < g4; g++ {
				tbase := g * 16
				tbl[tbase*2], tbl[tbase*2+1] = 0, 0
				for idx := 1; idx < 16; idx++ {
					low := idx & -idx
					poff := (tbase + (idx ^ low)) * 2
					prev := int32(int16(uint16(tbl[poff]) | uint16(tbl[poff+1])<<8))
					bitPos := trailingZeros4(low)
					kk := g*ltcGroup + bitPos
					var av int32
					if kk < t.K {
						av = int32(int8(aBuf.Data[4+kk]))
					}
					v := prev + av
					if v < -32768 || v > 32767 {
						panic(fmt.Sprintf("ltc: subset sum %d overflows 2 bytes", v))
					}
					woff := (tbase + idx) * 2
					tbl[woff] = byte(v)
					tbl[woff+1] = byte(v >> 8)
				}
			}
		}
		d.Exec(pim.EvInstr, int64(g4)*16*k.Costs.LTCTableBuildInstr)
		d.Note(pim.EvWRAMAccess, int64(g4)*32)
		x.charge(&x.b.Other)

		if cost {
			// The per-row charge sequence is a linear function of the trip
			// count, so the cost program folds the M rows into three batched
			// charges with identical totals and phase attribution.
			if err := d.ChargeDMAReadSeq(wSeg, 0, int64(bw*planeRowBytes),
				int64(t.M), int64(bw*planeRowBytes)); err != nil {
				return nil, err
			}
			x.charge(&x.b.Transfer)
			d.Exec(pim.EvInstr, int64(t.M)*int64(bw)*int64(g4)*k.Costs.LTCGroupInstr)
			d.Note(pim.EvWRAMAccess, int64(t.M)*int64(bw)*int64(g4)*2)
			x.charge(&x.b.CanonAccess)
			d.Exec(pim.EvInstr, int64(t.M)*(int64(bw)*k.Costs.LTCCombineInstr+2))
			x.charge(&x.b.Accumulate)
		} else {
			for m := 0; m < t.M; m++ {
				if err := d.DMARead(wSeg, int64(m*bw*planeRowBytes), wBuf.Data); err != nil {
					return nil, err
				}
				x.charge(&x.b.Transfer)

				// The subset-sum tables are fixed 2-byte entries; walking
				// them with the load inlined (two nibbles per plane byte)
				// keeps the per-group cost at two shifts and one 16-bit
				// load instead of a per-element ReadEntry call.
				tbl := tblBuf.Data
				for b := 0; b < bw; b++ {
					var acc int32
					prow := wBuf.Data[b*planeRowBytes : (b+1)*planeRowBytes]
					for g := 0; g < g4; g++ {
						nib := prow[g/2]
						if g%2 == 1 {
							nib >>= 4
						}
						off := (g*16 + int(nib&0xF)) * 2
						acc += int32(int16(uint16(tbl[off]) | uint16(tbl[off+1])<<8))
					}
					accs[b] = acc
				}
				d.Exec(pim.EvInstr, int64(bw)*int64(g4)*k.Costs.LTCGroupInstr)
				d.Note(pim.EvWRAMAccess, int64(bw)*int64(g4)*2)
				x.charge(&x.b.CanonAccess)

				var out int32
				for b := 0; b < bw; b++ {
					out += coefs[b] * accs[b]
				}
				out += corr * colSum
				lut.WriteEntry(oBuf.Data, m, 4, out)
				d.Exec(pim.EvInstr, int64(bw)*k.Costs.LTCCombineInstr+2)
				x.charge(&x.b.Accumulate)
			}
		}
		if err := dmaOut(d, oSeg, int64(n*t.M*4), oBuf, t.M*4); err != nil {
			return nil, err
		}
		x.charge(&x.b.Other)
	}

	// O is stored column-major in the bank; transpose out.
	if !cost {
		for n := 0; n < t.N; n++ {
			for m := 0; m < t.M; m++ {
				t.O[m*t.N+n] = lut.ReadEntry(oSeg.Data, n*t.M+m, 4)
			}
		}
	}
	return x.result(LTC, lut.Spec{}, 0, 0), nil
}

// trailingZeros4 returns the bit position of the lowest set bit of a 4-bit
// value (v must be nonzero and < 16).
func trailingZeros4(v int) int {
	switch {
	case v&1 != 0:
		return 0
	case v&2 != 0:
		return 1
	case v&4 != 0:
		return 2
	default:
		return 3
	}
}
