package kernels

import (
	"fmt"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// stagedLUT is the host-prepared bank image shared by all packed-LUT
// kernels: weights packed into p-wide group vectors laid out group-major
// (so one group's column of M vectors is contiguous for streaming), plus a
// per-(column, group) metadata record whose contents depend on the variant.
type stagedLUT struct {
	spec     lut.Spec
	groups   int // ceil(K/p)
	rowBytes int // packed weight vector width
	recBytes int // metadata record width
	wSeg     *pim.Segment
	metaSeg  *pim.Segment
	oSeg     *pim.Segment
}

// padActCode returns the activation code that decodes to zero, used to pad
// the final group when K is not a multiple of p.
func padActCode(c quant.Codec) (uint32, error) {
	if c.Decode(0) == 0 {
		return 0, nil
	}
	// Symmetric codecs have no zero level; search for one defensively.
	for code := uint32(0); code < uint32(c.Levels()); code++ {
		if c.Decode(code) == 0 {
			return code, nil
		}
	}
	return 0, fmt.Errorf("kernels: activation codec %v cannot represent 0; K must be a multiple of p", c)
}

// stageCommon allocates the weight, metadata and output segments and — on a
// functional DPU — fills the weight and metadata images. buildMeta fills the
// record for group g of column n given the group's activation codes; it is
// never invoked on an accounting DPU, whose segments have the same sizes but
// no bytes. Staging is host work and charges nothing, so skipping the fills
// cannot perturb the meter. The returned descriptor and all staging scratch
// live in ws and are recycled across runs.
func stageCommon(d *pim.DPU, t *Tile, spec lut.Spec, recBytes int, ws *Workspace,
	buildMeta func(rec []byte, actCodes []int) error) (*stagedLUT, error) {

	p := spec.P
	g := groupsOf(t.K, p)
	rb := spec.WeightRowBytes()
	st := &ws.st
	*st = stagedLUT{spec: spec, groups: g, rowBytes: rb, recBytes: recBytes}

	var err error
	if st.wSeg, err = d.MRAM.Alloc("Wg", int64(g*t.M*rb)); err != nil {
		return nil, err
	}
	if st.metaSeg, err = d.MRAM.Alloc("Ameta", int64(t.N*g*recBytes)); err != nil {
		return nil, err
	}
	if st.oSeg, err = d.MRAM.Alloc("O", int64(t.M*t.N*4)); err != nil {
		return nil, err
	}

	// The pad code is resolved in both modes so a padding-impossible codec
	// fails identically whichever program runs.
	padCode, err := padActCode(spec.Fmt.Act)
	if err != nil {
		return nil, err
	}
	if d.CostOnly() {
		return st, nil
	}

	// Pack weights group-major: [g][m], with the PackVector shift-or fused
	// into the walk (identical bits), the weight row sliced once per m, and
	// padding confined to the one possibly-partial trailing group. Pad
	// weights are 0, contributing no bits — the matching pad activation
	// decodes to 0.
	uwb := uint(spec.Fmt.Weight.Bits)
	wMask := uint32(1<<uwb) - 1
	wImg := st.wSeg.Data
	for m := 0; m < t.M; m++ {
		row := t.W[m*t.K : m*t.K+t.K]
		for gi := 0; gi < g; gi++ {
			base := gi * p
			end := base + p
			if end > t.K {
				end = t.K // the one possibly-partial trailing group
			}
			var packed uint32
			for kk := base; kk < end; kk++ {
				packed |= (uint32(row[kk]) & wMask) << (uint(kk-base) * uwb)
			}
			if rb == 1 {
				wImg[gi*t.M+m] = byte(packed)
			} else {
				lut.WriteUint(wImg[(gi*t.M+m)*rb:], 0, rb, packed)
			}
		}
	}

	// Metadata per (n, g).
	actCodes := grow(&ws.actCodes, p)
	for n := 0; n < t.N; n++ {
		for gi := 0; gi < g; gi++ {
			for i := 0; i < p; i++ {
				kk := gi*p + i
				if kk < t.K {
					actCodes[i] = int(t.A[kk*t.N+n])
				} else {
					actCodes[i] = int(padCode)
				}
			}
			rec := st.metaSeg.Data[(n*g+gi)*recBytes : (n*g+gi+1)*recBytes]
			if err := buildMeta(rec, actCodes); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// readO transposes the column-major bank output into the tile.
func (st *stagedLUT) readO(t *Tile) {
	for n := 0; n < t.N; n++ {
		for m := 0; m < t.M; m++ {
			t.O[m*t.N+n] = lut.ReadEntry(st.oSeg.Data, n*t.M+m, 4)
		}
	}
}

// wChunk is the weight-streaming granularity (rows per DMA).
const wChunk = 256

// OPKernel is the buffer-resident operation-packed LUT design (§III-B2):
// the full 2^((bw+ba)p) LUT lives in WRAM and each group lookup concatenates
// the packed weight and activation indices.
type OPKernel struct {
	Costs Costs
	Spec  lut.Spec
}

// NewOPKernel returns the kernel; Spec.P must make the OP LUT fit the WRAM
// LUT budget (checked at Run).
func NewOPKernel(c Costs, spec lut.Spec) *OPKernel { return &OPKernel{Costs: c, Spec: spec} }

func (k *OPKernel) Name() string     { return OP.String() }
func (k *OPKernel) Variant() Variant { return OP }

func (k *OPKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *OPKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	spec := k.Spec
	bo := spec.EntryBytes()
	lutBytes := spec.OpPackedBytes()
	if lutBytes > d.Cfg.WRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: OP LUT %s needs %d bytes, WRAM LUT budget is %d",
			spec, lutBytes, d.Cfg.WRAMLUTBudget())
	}

	// Meta record: byte offset of the packed activation within a LUT row.
	aBits := spec.Fmt.Act.Bits
	recBytes := MetaRecordBytes(OP, spec)
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
		return nil, fmt.Errorf("kernels: OP: %w", err)
	}

	// The LUT is broadcast into the bank and DMAd into WRAM once. Every
	// bank holds the identical table, so the functional simulation maps the
	// shared cached copy instead of duplicating it per DPU; the cost program
	// reserves the same bytes without ever building the table.
	lutSeg, err := lutSegment(d, "LUT", lutBytes, func() ([]byte, error) {
		table, err := lut.CachedOpPacked(spec)
		if err != nil {
			return nil, err
		}
		return table.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP: %w", err)
	}

	lutBuf, err := d.WRAM.Alloc("lut", int(lutBytes))
	if err != nil {
		return nil, fmt.Errorf("kernels: OP: %w", err)
	}
	x := ws.newBK(d)
	if err := dmaIn(d, lutSeg, 0, lutBuf, int(lutBytes)); err != nil {
		return nil, err
	}
	x.charge(&x.b.LUTLoad)

	rowStride := int(spec.OpCols()) * bo
	g := st.groups
	metaBuf, err := d.WRAM.Alloc("meta", g*recBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP: %w", err)
	}
	wBuf, err := d.WRAM.Alloc("wchunk", wChunk*st.rowBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP: %w", err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP: %w (tile M too large)", err)
	}
	var acc []int32
	var wcodes []uint32
	if !cost {
		acc = grow(&ws.acc, t.M)
		wcodes = grow(&ws.wcodes, wChunk)
	}

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
			var aOff int
			if !cost {
				aOff = int(lut.ReadUint(metaBuf.Data, gi, recBytes))
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

				if !cost {
					// Burst-wide lookup: decode the chunk's packed weight
					// codes once, then gather with the row base resolved per
					// burst instead of per element.
					wc := wcodes[:mc]
					decodeCodes(wc, wBuf.Data, mc, st.rowBytes)
					gatherAccum(acc[m0:m0+mc], wc, lutBuf.Data, rowStride, aOff, bo)
				}
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

// OPLCKernel is OP + LUT canonicalization with *software* weight reordering
// (§IV-A without §IV-B): the canonical LUT fits WRAM at a larger p, but
// every group pays unpack/permute/repack on the in-order core — the
// overhead Fig. 9 shows erasing the canonicalization gain.
type OPLCKernel struct {
	Costs Costs
	Spec  lut.Spec
}

// NewOPLCKernel returns the kernel.
func NewOPLCKernel(c Costs, spec lut.Spec) *OPLCKernel { return &OPLCKernel{Costs: c, Spec: spec} }

func (k *OPLCKernel) Name() string     { return OPLC.String() }
func (k *OPLCKernel) Variant() Variant { return OPLC }

func (k *OPLCKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *OPLCKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	spec := k.Spec
	p := spec.P
	bo := spec.EntryBytes()
	lutBytes := spec.CanonicalBytes()
	if lutBytes > d.Cfg.WRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: OP+LC canonical LUT %s needs %d bytes, WRAM LUT budget is %d",
			spec, lutBytes, d.Cfg.WRAMLUTBudget())
	}

	// Meta record: canonical column byte offset (minimal width) + the sort
	// permutation as p index bytes for the software reorder.
	recBytes := MetaRecordBytes(OPLC, spec)
	colB := recBytes - p
	rows := int(spec.Rows())
	sorted := grow(&ws.sorted, p)
	sperm := grow(&ws.sperm, p)
	st, err := stageCommon(d, t, spec, recBytes, ws, func(rec []byte, actCodes []int) error {
		col, _, err := ws.canonicalize(spec, actCodes, sorted, sperm)
		if err != nil {
			return err
		}
		lut.WriteUint(rec, 0, colB, uint32(col)*uint32(rows*bo))
		for i, v := range sperm {
			rec[colB+i] = byte(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC: %w", err)
	}

	lutSeg, err := lutSegment(d, "LUT", lutBytes, func() ([]byte, error) {
		canon, err := lut.CachedCanonical(spec)
		if err != nil {
			return nil, err
		}
		return canon.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC: %w", err)
	}
	lutBuf, err := d.WRAM.Alloc("lut", int(lutBytes))
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC: %w", err)
	}
	x := ws.newBK(d)
	if err := dmaIn(d, lutSeg, 0, lutBuf, int(lutBytes)); err != nil {
		return nil, err
	}
	x.charge(&x.b.LUTLoad)

	g := st.groups
	metaBuf, err := d.WRAM.Alloc("meta", g*recBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC: %w", err)
	}
	wBuf, err := d.WRAM.Alloc("wchunk", wChunk*st.rowBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC: %w", err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC: %w (tile M too large)", err)
	}
	var acc []int32
	var wcodes []uint32
	if !cost {
		acc = grow(&ws.acc, t.M)
		wcodes = grow(&ws.wcodes, wChunk)
	}

	wb := spec.Fmt.Weight.Bits
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
			var colOff int
			var sigma []byte
			if !cost {
				rec := metaBuf.Data[gi*recBytes : (gi+1)*recBytes]
				colOff = int(lut.ReadUint(rec, 0, colB))
				sigma = rec[colB : colB+p]
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

				if !cost {
					// Burst-wide: decode the chunk's packed codes once,
					// software-reorder each into its canonical code — the
					// unpack/permute/repack fused into one shift-or walk,
					// bit-identical to the three-step sequence — then
					// gather-accumulate with the column base resolved once
					// per burst.
					wc := wcodes[:mc]
					decodeCodes(wc, wBuf.Data, mc, st.rowBytes)
					uwb := uint(wb)
					wMask := uint32(1<<uwb) - 1
					for m, w := range wc {
						var wCanon uint32
						for i := 0; i < p; i++ {
							wCanon |= ((w >> (uint(sigma[i]) * uwb)) & wMask) << (uint(i) * uwb)
						}
						wc[m] = wCanon
					}
					gatherAccum(acc[m0:m0+mc], wc, lutBuf.Data, bo, colOff, bo)
				}
				d.Exec(pim.EvInstr, int64(mc)*(k.Costs.LCSWPerElement*int64(p)+k.Costs.LCSWGroupInstr))
				d.Note(pim.EvWRAMAccess, int64(mc)*int64(4+p))
				x.charge(&x.b.IdxCalc)
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
	return x.result(OPLC, spec, p, 0), nil
}

// OPLCRCKernel is the buffer-resident OP+LC+RC design: both the canonical
// and the reordering LUT live in WRAM, and each group costs the 12
// instructions of §VI-I.
type OPLCRCKernel struct {
	Costs Costs
	Spec  lut.Spec
}

// NewOPLCRCKernel returns the kernel.
func NewOPLCRCKernel(c Costs, spec lut.Spec) *OPLCRCKernel {
	return &OPLCRCKernel{Costs: c, Spec: spec}
}

func (k *OPLCRCKernel) Name() string     { return OPLCRC.String() }
func (k *OPLCRCKernel) Variant() Variant { return OPLCRC }

func (k *OPLCRCKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *OPLCRCKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	spec := k.Spec
	bo := spec.EntryBytes()
	rb := spec.WeightRowBytes()
	needed := spec.CombinedBytes()
	if needed > d.Cfg.WRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: OP+LC+RC LUTs %s need %d bytes, WRAM LUT budget is %d",
			spec, needed, d.Cfg.WRAMLUTBudget())
	}

	rows := int(spec.Rows())
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
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}

	canonSeg, err := lutSegment(d, "CanonLUT", spec.CanonicalBytes(), func() ([]byte, error) {
		canon, err := lut.CachedCanonical(spec)
		if err != nil {
			return nil, err
		}
		return canon.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}
	reorderSeg, err := lutSegment(d, "ReorderLUT", spec.ReorderBytes(), func() ([]byte, error) {
		reorder, err := lut.CachedReorder(spec)
		if err != nil {
			return nil, err
		}
		return reorder.Data, nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}

	canonBuf, err := d.WRAM.Alloc("canon", int(spec.CanonicalBytes()))
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}
	reorderBuf, err := d.WRAM.Alloc("reorder", int(spec.ReorderBytes()))
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}
	x := ws.newBK(d)
	if err := dmaIn(d, canonSeg, 0, canonBuf, int(spec.CanonicalBytes())); err != nil {
		return nil, err
	}
	if err := dmaIn(d, reorderSeg, 0, reorderBuf, int(spec.ReorderBytes())); err != nil {
		return nil, err
	}
	x.charge(&x.b.LUTLoad)

	g := st.groups
	metaBuf, err := d.WRAM.Alloc("meta", g*recBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}
	wBuf, err := d.WRAM.Alloc("wchunk", wChunk*st.rowBytes)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w", err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("kernels: OP+LC+RC: %w (tile M too large)", err)
	}
	var acc []int32
	var wcodes []uint32
	if !cost {
		acc = grow(&ws.acc, t.M)
		wcodes = grow(&ws.wcodes, wChunk)
	}

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
			var colOff, sigmaOff int
			if !cost {
				colOff = int(lut.ReadUint(metaBuf.Data[gi*recBytes:], 0, colB))
				sigmaOff = int(lut.ReadUint(metaBuf.Data[gi*recBytes+colB:], 0, sigB))
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

				if !cost {
					// Burst-wide: decode the chunk's packed codes once,
					// translate them through the group's reordering column in
					// one pass, then gather-accumulate from the canonical
					// column — both slice bases resolved once per burst.
					wc := wcodes[:mc]
					decodeCodes(wc, wBuf.Data, mc, st.rowBytes)
					translateCodes(wc, reorderBuf.Data[sigmaOff:], rb)
					gatherAccum(acc[m0:m0+mc], wc, canonBuf.Data, bo, colOff, bo)
				}
				mc64 := int64(mc)
				d.Exec(pim.EvInstr, mc64*k.Costs.RCIdxCalcInstr)
				x.charge(&x.b.IdxCalc)
				d.Exec(pim.EvInstr, mc64*k.Costs.RCReorderAccInstr)
				x.charge(&x.b.ReorderAccess)
				d.Exec(pim.EvInstr, mc64*k.Costs.RCCanonAccInstr)
				x.charge(&x.b.CanonAccess)
				d.Exec(pim.EvInstr, mc64*k.Costs.RCAccumInstr)
				x.charge(&x.b.Accumulate)
				d.Note(pim.EvWRAMAccess, mc64*4)
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
	return x.result(OPLCRC, spec, spec.P, 0), nil
}
