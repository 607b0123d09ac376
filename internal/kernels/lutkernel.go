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
	groups  int // ceil(K/p)
	wSeg    *pim.Segment
	metaSeg *pim.Segment
	oSeg    *pim.Segment
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
	*st = stagedLUT{groups: g}

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

// residency is where a packed-LUT design keeps its table while it runs.
type residency uint8

const (
	// inWRAM: the whole table is DMAd into WRAM once per tile.
	inWRAM residency = iota
	// perLookup: the table stays in MRAM and every lookup is its own DMA.
	perLookup
	// sliced: the tables stay in MRAM and, per batch of sliceK groups, the
	// columns the batch references stream into WRAM, where all M weight
	// rows reuse them (the input-stationary-over-LUT-slice dataflow of
	// Fig. 7).
	sliced
)

// indexing is how a packed weight vector finds its entry.
type indexing uint8

const (
	// concat: the operation-packed table, addressed by concatenating the
	// packed weight and activation indices (§III-B2).
	concat indexing = iota
	// swReorder: the canonical table; the core permutes every weight vector
	// by the group's sort permutation in software (§IV-A without §IV-B).
	swReorder
	// reorderLUT: the canonical table; the reordering LUT translates every
	// weight vector (§IV-B).
	reorderLUT
)

// LUTKernel is the operation-packed LUT kernel and the ladder of mechanisms
// the paper builds on it. A design point is a residency and an indexing, set
// by its constructor; every design runs the one column loop of RunRequest.
type LUTKernel struct {
	Costs  Costs
	Spec   lut.Spec
	v      Variant
	res    residency
	idx    indexing
	sliceK int // slice pairs resident in WRAM (the k of §VI-D); sliced only
}

// NewOPKernel returns the buffer-resident operation-packed LUT design
// (§III-B2): the full 2^((bw+ba)p) LUT lives in WRAM and each group lookup
// concatenates the packed weight and activation indices. Spec.P must make
// the LUT fit the WRAM LUT budget (checked at Run).
func NewOPKernel(c Costs, spec lut.Spec) *LUTKernel {
	return &LUTKernel{Costs: c, Spec: spec, v: OP, res: inWRAM, idx: concat}
}

// NewOPDRAMKernel returns the Fig. 3(a) candidate design: the
// operation-packed LUT resides in the DRAM bank (allowing packing degrees up
// to p_DRAM) and every group lookup issues an individual MRAM access. The
// per-lookup DMA setup cost is exactly what makes this design lose to the
// buffer-sized LUT in Fig. 3(c), motivating LoCaLUT's buffer-centric base
// design.
func NewOPDRAMKernel(c Costs, spec lut.Spec) *LUTKernel {
	return &LUTKernel{Costs: c, Spec: spec, v: OP, res: perLookup, idx: concat}
}

// NewOPLCKernel returns OP + LUT canonicalization with *software* weight
// reordering (§IV-A without §IV-B): the canonical LUT fits WRAM at a larger
// p, but every group pays unpack/permute/repack on the in-order core — the
// overhead Fig. 9 shows erasing the canonicalization gain.
func NewOPLCKernel(c Costs, spec lut.Spec) *LUTKernel {
	return &LUTKernel{Costs: c, Spec: spec, v: OPLC, res: inWRAM, idx: swReorder}
}

// NewOPLCRCKernel returns the buffer-resident OP+LC+RC design: both the
// canonical and the reordering LUT live in WRAM, and each group costs the 12
// instructions of §VI-I.
func NewOPLCRCKernel(c Costs, spec lut.Spec) *LUTKernel {
	return &LUTKernel{Costs: c, Spec: spec, v: OPLCRC, res: inWRAM, idx: reorderLUT}
}

// NewBufferedKernel returns LoCaLUT when the cost model keeps its LUTs in
// WRAM: the OP+LC+RC column loop at the same cost, under LoCaLUT's name, so
// its errors name the design that was asked for.
func NewBufferedKernel(c Costs, spec lut.Spec) *LUTKernel {
	return &LUTKernel{Costs: c, Spec: spec, v: LoCaLUT, res: inWRAM, idx: reorderLUT}
}

// NewStreamKernel returns the full LoCaLUT design (OP+LC+RC+SS, §IV-C): the
// canonical and reordering LUTs live in the DRAM bank at a packing degree up
// to p_DRAM, and for every batch of sliceK activation groups only the
// referenced LUT columns are DMA-streamed into WRAM, where they are reused
// across all M weight rows of the tile. sliceK must be >= 1 (checked at
// Run).
func NewStreamKernel(c Costs, spec lut.Spec, sliceK int) *LUTKernel {
	return &LUTKernel{Costs: c, Spec: spec, v: LoCaLUT, res: sliced, idx: reorderLUT, sliceK: sliceK}
}

func (k *LUTKernel) Name() string {
	if k.res == perLookup {
		return "OP(DRAM)"
	}
	return k.v.String()
}

// fail names the design in an error.
func (k *LUTKernel) fail(err error) error { return fmt.Errorf("kernels: %s: %w", k.Name(), err) }

func (k *LUTKernel) Run(d *pim.DPU, t *Tile) (*Result, error) {
	return k.RunRequest(&Request{DPU: d, Tile: t})
}

func (k *LUTKernel) RunRequest(req *Request) (*Result, error) {
	d, t, ws := req.DPU, req.Tile, req.WS.ensure()
	d.Reset()
	cost := d.CostOnly()
	spec, costs, res, idx, nk := k.Spec, k.Costs, k.res, k.idx, 1
	p, bo, rb, rows := spec.P, spec.EntryBytes(), spec.WeightRowBytes(), int(spec.Rows())

	// The budget check: the tables against the memory they live in, and a
	// slice batch against WRAM.
	need := TableBytes(k.v, spec)
	tabBytes, reorderBytes := need, int64(0)
	if idx == reorderLUT {
		tabBytes, reorderBytes = spec.CanonicalBytes(), spec.ReorderBytes()
	}
	mem, budget := "WRAM", d.Cfg.WRAMLUTBudget()
	if res != inWRAM {
		mem, budget = "MRAM", d.Cfg.MRAMLUTBudget()
	}
	if res == sliced {
		if nk = k.sliceK; nk < 1 {
			return nil, fmt.Errorf("kernels: %s: SliceK %d < 1", k.Name(), nk)
		}
	}
	if need > budget {
		return nil, fmt.Errorf("kernels: %s: LUTs %s need %d bytes, %s LUT budget is %d",
			k.Name(), spec, need, mem, budget)
	}
	if res == sliced && int64(nk*rows*(bo+rb)) > d.Cfg.WRAMLUTBudget() {
		return nil, fmt.Errorf("kernels: %s: k=%d slice pairs of %d bytes exceed WRAM LUT budget %d",
			k.Name(), nk, rows*(bo+rb), d.Cfg.WRAMLUTBudget())
	}

	// The metadata record of a group: its table column's byte offset in
	// colB bytes, then sigB bytes that find a weight vector's entry in it.
	colB, sigB := metaLayout(k.v, spec)
	recBytes := colB + sigB
	aBits := uint(spec.Fmt.Act.Bits)
	aMask := spec.Fmt.Act.Mask()
	var sorted, sperm []int
	if !cost && idx != concat {
		sorted, sperm = grow(&ws.sorted, p), grow(&ws.sperm, p)
	}
	st, err := stageCommon(d, t, spec, recBytes, ws, func(rec []byte, actCodes []int) error {
		if idx == concat {
			// The byte offset of the packed activation within a LUT row.
			var a uint32
			for i, c := range actCodes {
				a |= (uint32(c) & aMask) << (uint(i) * aBits)
			}
			lut.WriteUint(rec, 0, colB, a*uint32(bo))
			return nil
		}
		col, sigma, err := ws.canonicalize(spec, actCodes, sorted, sperm)
		if err != nil {
			return err
		}
		lut.WriteUint(rec, 0, colB, uint32(col)*uint32(rows*bo))
		if idx == swReorder {
			// The sort permutation, p index bytes for the software reorder.
			for i, v := range sperm {
				rec[colB+i] = byte(v)
			}
		} else {
			// The byte offset of the reordering column.
			lut.WriteUint(rec[colB:], 0, sigB, uint32(sigma)*uint32(rows*rb))
		}
		return nil
	})
	if err != nil {
		return nil, k.fail(err)
	}

	// The tables. Every bank holds the identical tables, so the functional
	// simulation maps the shared cached copy instead of duplicating it per
	// DPU; the cost program reserves the same bytes without building them.
	tabName := "LUT"
	if idx == reorderLUT {
		tabName = "CanonLUT"
	}
	tab, err := lutSegment(d, tabName, tabBytes, func() ([]byte, error) {
		if idx == concat {
			table, err := lut.CachedOpPacked(spec)
			if err != nil {
				return nil, err
			}
			return table.Data, nil
		}
		canon, err := lut.CachedCanonical(spec)
		if err != nil {
			return nil, err
		}
		return canon.Data, nil
	})
	if err != nil {
		return nil, k.fail(err)
	}
	var reorderSeg *pim.Segment
	if idx == reorderLUT {
		reorderSeg, err = lutSegment(d, "ReorderLUT", reorderBytes, func() ([]byte, error) {
			reorder, err := lut.CachedReorder(spec)
			if err != nil {
				return nil, err
			}
			return reorder.Data, nil
		})
		if err != nil {
			return nil, k.fail(err)
		}
	}

	// WRAM: the tables (whole, or nk slice pairs), the column's metadata,
	// the streamed weight chunks (one per group of a batch), and the output
	// column accumulator.
	tabSize, reorderSize := int(tabBytes), int(reorderBytes)
	if res == sliced {
		tabSize, reorderSize = nk*rows*bo, nk*rows*rb
	}
	var tabBuf, reorderBuf *pim.Buffer
	if res != perLookup {
		if tabBuf, err = d.WRAM.Alloc("lut", tabSize); err != nil {
			return nil, k.fail(err)
		}
		if idx == reorderLUT {
			if reorderBuf, err = d.WRAM.Alloc("reorder", reorderSize); err != nil {
				return nil, k.fail(err)
			}
		}
	}
	g := st.groups
	metaBuf, err := d.WRAM.Alloc("meta", g*recBytes)
	if err != nil {
		return nil, k.fail(err)
	}
	wBuf, err := d.WRAM.Alloc("wchunk", nk*wChunk*rb)
	if err != nil {
		return nil, k.fail(err)
	}
	oBuf, err := d.WRAM.Alloc("ocol", t.M*4)
	if err != nil {
		return nil, fmt.Errorf("%w (tile M too large)", k.fail(err))
	}

	// A buffer-resident design DMAs its whole tables into WRAM once.
	x := ws.newBK(d)
	if res == inWRAM {
		if err := dmaIn(d, tab, 0, tabBuf, tabSize); err != nil {
			return nil, err
		}
		if idx == reorderLUT {
			if err := dmaIn(d, reorderSeg, 0, reorderBuf, reorderSize); err != nil {
				return nil, err
			}
		}
		x.charge(&x.b.LUTLoad)
	}

	var data lutData // left zero by a cost-only run
	if !cost {
		data = lutData{k: k, d: d, tabSeg: tab, reorderSeg: reorderSeg, meta: metaBuf.Data, w: wBuf.Data,
			acc: grow(&ws.acc, t.M), wcodes: grow(&ws.wcodes, wChunk),
			recBytes: recBytes, colB: colB, sigB: sigB, stride: bo, bo: bo, rb: rb, rows: rows}
		if idx == concat {
			data.stride = int(spec.OpCols()) * bo
		}
		if res == perLookup {
			data.entry = grow(&ws.entry, bo)
		} else {
			data.tab = tabBuf.Data
		}
		if reorderBuf != nil {
			data.reorder = reorderBuf.Data
		}
	}

	for n := 0; n < t.N; n++ {
		n = x.foldColumns(n, t.N)
		if err := dmaIn(d, st.metaSeg, int64(n*g*recBytes), metaBuf, g*recBytes); err != nil {
			return nil, err
		}
		x.charge(&x.b.Transfer)
		if !cost {
			zeroAcc(data.acc)
		}
		d.Exec(pim.EvInstr, int64(t.M))
		x.charge(&x.b.Other)

		for g0 := 0; g0 < g; g0 += nk {
			kk := min(nk, g-g0)
			// A slice batch streams the slice pairs its records name into
			// WRAM slots (step 3, Fig. 7). The streamed addresses are
			// data-dependent but every slice has the same size, so the cost
			// program folds the batch into two aggregate charges of
			// identical total cycles and bytes.
			if res == sliced {
				var err error
				if !cost {
					err = data.stream(g0, kk)
				} else if err = d.ChargeDMAReads(tab, int64(kk), int64(rows*bo)); err == nil {
					err = d.ChargeDMAReads(reorderSeg, int64(kk), int64(rows*rb))
				}
				if err != nil {
					return nil, err
				}
				x.charge(&x.b.LUTLoad)
			}

			// Stream the batch's weights and reuse its entries across the M
			// rows (steps 4-6, Fig. 7).
			for m0 := 0; m0 < t.M; m0 += wChunk {
				mc := min(wChunk, t.M-m0)
				off := int64((g0*t.M + m0) * rb)
				var err error
				switch {
				case !cost:
					for j := 0; j < kk && err == nil; j++ {
						err = d.DMARead(st.wSeg, off+int64(j*t.M*rb), data.w[j*wChunk*rb:j*wChunk*rb+mc*rb])
					}
				case kk == 1:
					err = d.ChargeDMARead(st.wSeg, off, int64(mc*rb))
				default:
					err = d.ChargeDMAReadSeq(st.wSeg, off, int64(t.M*rb), int64(kk), int64(mc*rb))
				}
				if err != nil {
					return nil, err
				}
				x.charge(&x.b.Transfer)

				if res == perLookup {
					// Per-lookup MRAM access: the defining cost of this
					// design point. Entry addresses are data-dependent but
					// every access moves the same bo bytes, so the cost
					// program folds the mc lookups into one aggregate charge
					// of identical cycles.
					if !cost {
						err = data.lookup(g0, m0, mc, kk)
					} else {
						err = d.ChargeDMAReads(tab, int64(mc), int64(bo))
					}
					if err != nil {
						return nil, err
					}
					x.charge(&x.b.LUTLoad)
				} else if !cost {
					data.lookup(g0, m0, mc, kk)
				}

				mk := int64(mc) * int64(kk)
				switch idx {
				case concat:
					d.Exec(pim.EvInstr, mk*costs.OPGroupInstr)
					d.Note(pim.EvWRAMAccess, mk*4)
					x.charge(&x.b.CanonAccess)
				case swReorder:
					d.Exec(pim.EvInstr, mk*(costs.LCSWPerElement*int64(p)+costs.LCSWGroupInstr))
					d.Note(pim.EvWRAMAccess, mk*int64(4+p))
					x.charge(&x.b.IdxCalc)
				case reorderLUT:
					d.Exec(pim.EvInstr, mk*costs.RCIdxCalcInstr)
					x.charge(&x.b.IdxCalc)
					d.Exec(pim.EvInstr, mk*costs.RCReorderAccInstr)
					x.charge(&x.b.ReorderAccess)
					d.Exec(pim.EvInstr, mk*costs.RCCanonAccInstr)
					x.charge(&x.b.CanonAccess)
					if res == sliced {
						// The kk resident slice pairs of a weight row are
						// looked up back-to-back and accumulated in a
						// register; one WRAM output update closes the row.
						// This register-level output reuse is what makes
						// larger k pay off (§VI-D, Fig. 13).
						d.Exec(pim.EvInstr, mk*costs.RCStreamRegInstr+int64(mc)*costs.RCOutUpdateInstr)
						d.Note(pim.EvWRAMAccess, mk*3+int64(mc)*2)
					} else {
						d.Exec(pim.EvInstr, mk*costs.RCAccumInstr)
						d.Note(pim.EvWRAMAccess, mk*4)
					}
					x.charge(&x.b.Accumulate)
				}
			}
		}
		if !cost {
			flushAcc(data.acc, oBuf.Data)
		}
		if err := dmaOut(d, st.oSeg, int64(n*t.M*4), oBuf, t.M*4); err != nil {
			return nil, err
		}
		x.charge(&x.b.Other)
	}
	if !cost {
		st.readO(t)
	}
	return x.result(k.v, spec, p, k.sliceK), nil
}

// lutData is the data program of one packed-LUT run: the bytes its lookups
// read and the accumulator they fill. The column loop reaches it through
// one pointer, so the cost program carries none of it.
type lutData struct {
	k                  *LUTKernel
	d                  *pim.DPU
	tabSeg, reorderSeg *pim.Segment // the tables in MRAM
	// WRAM: the column's records, the weight chunks (one slot per group of
	// a batch), and the table and reordering LUT (whole, or slot j of the
	// slices at j*rows*bo and j*rows*rb).
	meta, w, tab, reorder []byte
	entry                 []byte // OP(DRAM)'s per-lookup landing pad
	acc                   []int32
	wcodes                []uint32 // burst-decoded packed weight codes
	recBytes, colB, sigB  int
	stride, bo, rb, rows  int // entry stride within a table column, widths, rows
}

// locate reads group gi's record: its table column's byte offset, and the
// byte offset of its reordering column (reorderLUT) or of its permutation
// within meta (swReorder).
func (r *lutData) locate(gi int) (col, sig int) {
	rec := r.meta[gi*r.recBytes:]
	col, sig = int(lut.ReadUint(rec, 0, r.colB)), gi*r.recBytes+r.colB
	if r.k.idx == reorderLUT {
		sig = int(lut.ReadUint(rec[r.colB:], 0, r.sigB))
	}
	return col, sig
}

// stream DMAs the slice pairs of groups g0..g0+kk-1 into WRAM slots 0..kk-1.
func (r *lutData) stream(g0, kk int) error {
	cs, rs := r.rows*r.bo, r.rows*r.rb
	for j := 0; j < kk; j++ {
		col, sig := r.locate(g0 + j)
		if err := r.d.DMARead(r.tabSeg, int64(col), r.tab[j*cs:(j+1)*cs]); err != nil {
			return err
		}
		if err := r.d.DMARead(r.reorderSeg, int64(sig), r.reorder[j*rs:(j+1)*rs]); err != nil {
			return err
		}
	}
	return nil
}

// lookup adds to acc rows m0..m0+mc-1 of the batch of kk groups from g0,
// burst-wide: each group's packed codes are decoded once, reordered (by the
// record's permutation or the reordering LUT), then gather-accumulated with
// the column base resolved once per burst. A slice batch walks its lookups
// slot by slot where the device walks them row by row into a register;
// int32 addition commutes, so the outputs are bit-identical. Any other
// batch is one group, whose record says where its entries are; OP(DRAM)
// DMAs each of them from MRAM, every transfer charging the meter.
func (r *lutData) lookup(g0, m0, mc, kk int) error {
	acc, wc := r.acc[m0:m0+mc], r.wcodes[:mc]
	var col, sig int
	if r.k.res != sliced {
		col, sig = r.locate(g0)
	}
	for j := 0; j < kk; j++ {
		decodeCodes(wc, r.w[j*wChunk*r.rb:], mc, r.rb)
		switch {
		case r.k.res == perLookup:
			for m, w := range wc {
				if err := r.d.DMARead(r.tabSeg, int64(w)*int64(r.stride)+int64(col), r.entry); err != nil {
					return err
				}
				acc[m] += lut.ReadEntry(r.entry, 0, r.bo)
			}
			return nil
		case r.k.idx == swReorder:
			// Software reordering: the unpack/permute/repack of each packed
			// code fused into one shift-or walk, bit-identical to the
			// three-step sequence.
			uwb := uint(r.k.Spec.Fmt.Weight.Bits)
			wMask := uint32(1<<uwb) - 1
			sigma := r.meta[sig : sig+r.k.Spec.P]
			for m, w := range wc {
				var wCanon uint32
				for i, s := range sigma {
					wCanon |= ((w >> (uint(s) * uwb)) & wMask) << (uint(i) * uwb)
				}
				wc[m] = wCanon
			}
		case r.k.idx == reorderLUT:
			translateCodes(wc, r.reorder[sig+j*r.rows*r.rb:], r.rb)
		}
		gatherAccum(acc, wc, r.tab, r.stride, col+j*r.rows*r.bo, r.bo)
	}
	return nil
}
