package kernels

import (
	"fmt"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// Variant enumerates the kernel designs in the paper's presentation order.
type Variant int

const (
	// Naive is conventional PIM: the in-order core with its native 8-bit
	// multipliers, no LUTs.
	Naive Variant = iota
	// LTC is the LUT Tensor Core adaptation: bit-serial weights over
	// runtime-built activation subset-sum tables.
	LTC
	// OP is the buffer-resident operation-packed LUT (§III-B2).
	OP
	// OPLC adds LUT canonicalization with software weight reordering.
	OPLC
	// OPLCRC adds the reordering LUT (still buffer-resident).
	OPLCRC
	// LoCaLUT is OP+LC+RC+SS: DRAM-resident LUTs with slice streaming.
	LoCaLUT
	// NumVariants counts the designs.
	NumVariants
)

var variantNames = [...]string{"NaivePIM", "LTC", "OP", "OP+LC", "OP+LC+RC", "LoCaLUT"}

func (v Variant) String() string {
	if v >= 0 && int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all designs in order.
var Variants = []Variant{Naive, LTC, OP, OPLC, OPLCRC, LoCaLUT}

// Mode selects how a kernel executes a tile.
//
// Every kernel's Run is two interleaved programs: a cost program (the
// Exec/Note/DMA charge sequence, a data-independent function of the tile
// shape, the spec and the machine config) and a data program (byte movement
// through MRAM/WRAM and the per-element lookups that fill t.O). Functional
// runs both; CyclesOnly runs only the cost program on an accounting DPU —
// same loop trip counts, same charges in the same order, so cycles, meters
// and breakdowns are bit-identical to Functional, at O(meter updates) host
// work instead of O(M·N·K) byte work. CyclesOnly produces no output (t.O is
// untouched) and therefore cannot be verified against the reference.
type Mode int

const (
	// Functional executes both the cost and the data program.
	Functional Mode = iota
	// CyclesOnly executes only the cost program.
	CyclesOnly
)

var modeNames = [...]string{"functional", "cycles-only"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// DPUForMode builds the DPU a kernel run under the mode needs: a functional
// DPU with backed memories, or a segment-less accounting DPU.
func DPUForMode(cfg *pim.Config, m Mode) *pim.DPU {
	if m == CyclesOnly {
		return pim.NewAccountingDPU(cfg)
	}
	return pim.NewDPU(cfg)
}

// Costs bundles the per-inner-loop instruction budgets of each kernel. All
// values are DPU instructions (1 cycle each unless noted); they encode the
// realistic UPMEM assembly the paper's kernels compile to and are the only
// free calibration parameters of the simulator.
type Costs struct {
	// NaiveMACInstr: per-MAC instructions besides the 8-bit multiply
	// (2 WRAM loads, add, pointer/branch bookkeeping).
	NaiveMACInstr int64
	// LTCGroupInstr: per 4-activation plane-group lookup (index load,
	// nibble extract, address, table load, accumulate, loop bookkeeping).
	LTCGroupInstr int64
	// LTCTableBuildInstr: per table entry during the runtime subset-sum
	// table construction (gray-code add + store + bookkeeping).
	LTCTableBuildInstr int64
	// LTCCombineInstr: per output per bit-plane shift-accumulate combine.
	LTCCombineInstr int64
	// OPGroupInstr: per packed lookup of the OP kernel (w load, index
	// load, concat-address, LUT load, accumulate, bookkeeping).
	OPGroupInstr int64
	// LCSWPerElement: OP+LC software reordering instructions per packed
	// element (unpack, permute move, repack shift-or).
	LCSWPerElement int64
	// LCSWGroupInstr: OP+LC fixed per-group instructions besides the
	// per-element reordering (loads, address, lookup, accumulate).
	LCSWGroupInstr int64
	// The reordering-LUT lookup sequence of §VI-I — "lookup operations for
	// canonical LUT and reordering LUT with accumulation consist of 12
	// instructions" — split into Fig. 16(b) phases: index calculation,
	// reorder access, canonical access, and accumulation+loop upkeep.
	// The buffer-resident OP+LC+RC kernel charges
	// IdxCalc+Reorder+Canon+Accum = 12 per group.
	RCIdxCalcInstr, RCReorderAccInstr, RCCanonAccInstr, RCAccumInstr int64
	// The slice-streaming kernel accumulates its k resident slices in a
	// register (RCStreamRegInstr per lookup: add + loop) and pays one WRAM
	// output read-modify-write per row and slice batch (RCOutUpdateInstr),
	// so per-group cost is IdxCalc+Reorder+Canon+Reg + OutUpdate/k —
	// 13 at k=1 down to ~10.4 at k=8, bracketing the paper's 12.
	RCStreamRegInstr, RCOutUpdateInstr int64
}

// DefaultCosts returns the calibrated instruction budgets.
func DefaultCosts() Costs {
	return Costs{
		NaiveMACInstr:      5, // + CyclesPerMul8 => ~7 cycles/MAC
		LTCGroupInstr:      10,
		LTCTableBuildInstr: 2,
		LTCCombineInstr:    2,
		OPGroupInstr:       9,
		LCSWPerElement:     5,
		LCSWGroupInstr:     8,
		RCIdxCalcInstr:     6,
		RCReorderAccInstr:  1,
		RCCanonAccInstr:    1,
		RCAccumInstr:       4,
		RCStreamRegInstr:   2,
		RCOutUpdateInstr:   3,
	}
}

// RCGroupInstr is the buffer-resident reordering-LUT group of §VI-I,
// IdxCalc+Reorder+Canon+Accum: the "12 instructions" L_local times.
func (c Costs) RCGroupInstr() int64 {
	return c.RCIdxCalcInstr + c.RCReorderAccInstr + c.RCCanonAccInstr + c.RCAccumInstr
}

// Tile is one bank's share of a GEMM: O[m][n] = sum_k W[m][k] * A[k][n]
// over decoded code values. W codes are row-major M x K, A codes are
// row-major K x N, O is row-major M x N.
type Tile struct {
	M, K, N int
	Fmt     quant.Format
	W       []uint8
	A       []uint8
	O       []int32
}

// NewTile validates shapes and allocates the output.
func NewTile(m, k, n int, f quant.Format, w, a []uint8) (*Tile, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("kernels: invalid tile %dx%dx%d", m, k, n)
	}
	if len(w) != m*k {
		return nil, fmt.Errorf("kernels: W has %d codes, want %d", len(w), m*k)
	}
	if len(a) != k*n {
		return nil, fmt.Errorf("kernels: A has %d codes, want %d", len(a), k*n)
	}
	return &Tile{M: m, K: k, N: n, Fmt: f, W: w, A: a, O: make([]int32, m*n)}, nil
}

// NewShapeTile builds a data-less tile for cycles-only runs: the shape and
// format drive the cost program, and no code arrays or output are allocated.
// The DPU mode — not the tile — selects which program runs, so a shape tile
// must only be paired with an accounting DPU: on a functional DPU the data
// program will index the nil code slices and panic.
func NewShapeTile(m, k, n int, f quant.Format) (*Tile, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("kernels: invalid tile %dx%dx%d", m, k, n)
	}
	return &Tile{M: m, K: k, N: n, Fmt: f}, nil
}

// RefGEMM computes the exact integer reference product of the tile's codes.
func RefGEMM(t *Tile) []int32 {
	out := make([]int32, t.M*t.N)
	wv := make([]int32, t.M*t.K)
	for i, c := range t.W {
		wv[i] = t.Fmt.Weight.Decode(uint32(c))
	}
	av := make([]int32, t.K*t.N)
	for i, c := range t.A {
		av[i] = t.Fmt.Act.Decode(uint32(c))
	}
	refGEMM(t, wv, av, out)
	return out
}

// Breakdown attributes kernel cycles to the Fig. 16(b) phases.
type Breakdown struct {
	CanonAccess   int64 // canonical LUT access
	ReorderAccess int64 // reordering LUT access
	IdxCalc       int64 // reordering/canonical LUT index calculation
	Transfer      int64 // activation/weight transfer (DMA)
	LUTLoad       int64 // LUT (slice) loading DMA
	Accumulate    int64 // accumulation and loop upkeep
	Other         int64 // everything else (table builds, writeback, setup)
}

// Total sums all phases.
func (b *Breakdown) Total() int64 {
	return b.CanonAccess + b.ReorderAccess + b.IdxCalc + b.Transfer +
		b.LUTLoad + b.Accumulate + b.Other
}

// Result reports one kernel execution on one bank.
type Result struct {
	Variant   Variant
	Spec      lut.Spec // zero Spec for Naive/LTC
	P         int      // packing degree used (0 for Naive/LTC)
	K         int      // slice batch for LoCaLUT (0 otherwise)
	Cycles    int64
	Seconds   float64
	Breakdown Breakdown
}

// Kernel runs one tile on one DPU.
type Kernel interface {
	Name() string
	// Run executes the tile on the DPU, filling t.O, and returns timing.
	// It is the convenience entry point; each call uses private scratch.
	Run(d *pim.DPU, t *Tile) (*Result, error)
	// RunRequest is Run with an optional reusable Workspace (Request.WS).
	// A worker that executes many tiles through one DPU + Workspace pair
	// reaches an allocation-free steady state; results are bit-identical
	// to Run whatever scratch is recycled.
	RunRequest(req *Request) (*Result, error)
}

// bk tracks a phase-attributed cycle meter on top of the DPU meter.
type bk struct {
	d    *pim.DPU
	last int64
	b    Breakdown
	// The meter and breakdown as column 0 began (foldColumns).
	m0 pim.Meter
	b0 Breakdown
}

func newBK(d *pim.DPU) *bk { return &bk{d: d, last: d.Meter.Cycles} }

// charge attributes the cycles since the last call to the given bucket.
func (x *bk) charge(bucket *int64) {
	now := x.d.Meter.Cycles
	*bucket += now - x.last
	x.last = now
}

// foldColumns is the first statement of every per-column loop of a cost
// program: n = x.foldColumns(n, cols). On an accounting DPU with cols >= 3 it
// snapshots the meter and breakdown as column 0 begins and, as column 1 would
// begin, charges cols-2 more copies of column 0's delta to Cycles, every
// event class and every breakdown bucket, then returns cols-1 so the loop
// runs the last column. Otherwise it returns n. doc.go ("Column fold") shows
// why the copies are exact.
func (x *bk) foldColumns(n, cols int) int {
	if cols < 3 || !x.d.CostOnly() {
		return n
	}
	switch n {
	case 0:
		x.m0, x.b0 = x.d.Meter, x.b
	case 1:
		c := int64(cols - 2)
		m := &x.d.Meter
		m.Cycles += c * (m.Cycles - x.m0.Cycles)
		for i := range m.Counts {
			m.Counts[i] += c * (m.Counts[i] - x.m0.Counts[i])
		}
		b, b0 := &x.b, &x.b0
		b.CanonAccess += c * (b.CanonAccess - b0.CanonAccess)
		b.ReorderAccess += c * (b.ReorderAccess - b0.ReorderAccess)
		b.IdxCalc += c * (b.IdxCalc - b0.IdxCalc)
		b.Transfer += c * (b.Transfer - b0.Transfer)
		b.LUTLoad += c * (b.LUTLoad - b0.LUTLoad)
		b.Accumulate += c * (b.Accumulate - b0.Accumulate)
		b.Other += c * (b.Other - b0.Other)
		x.last = m.Cycles
		return cols - 1
	}
	return n
}

// result assembles the Result from the DPU meter.
func (x *bk) result(v Variant, spec lut.Spec, p, k int) *Result {
	return &Result{
		Variant: v, Spec: spec, P: p, K: k,
		Cycles:    x.d.Meter.Cycles,
		Seconds:   x.d.Seconds(),
		Breakdown: x.b,
	}
}

// groupsOf returns ceil(k/p).
func groupsOf(k, p int) int { return (k + p - 1) / p }

// byteWidthFor returns the minimal little-endian field width (1, 2 or 4
// bytes) holding unsigned values below maxExclusive.
func byteWidthFor(maxExclusive int64) int {
	switch {
	case maxExclusive <= 1<<8:
		return 1
	case maxExclusive <= 1<<16:
		return 2
	default:
		return 4
	}
}

// MetaRecordBytes returns the per-group activation metadata record width a
// variant ships to each bank: the host packs column/permutation byte
// offsets in the minimal width the LUT footprint requires, so low-bit
// configurations keep their transfer advantage.
func MetaRecordBytes(v Variant, spec lut.Spec) int {
	colB, sigB := metaLayout(v, spec)
	return colB + sigB
}

// TableBytes is the LUT footprint of a packed-LUT design at spec: the
// operation-packed table (OP), the canonical table (OP+LC), or the canonical
// plus the reordering table (OP+LC+RC, LoCaLUT). Naive and LTC hold no
// host-built table. The kernels check it against their budget and the
// planner searches p with it, so the two cannot disagree.
func TableBytes(v Variant, spec lut.Spec) int64 {
	switch v {
	case OP:
		return spec.OpPackedBytes()
	case OPLC:
		return spec.CanonicalBytes()
	case OPLCRC, LoCaLUT:
		return spec.CombinedBytes()
	}
	return 0
}

// metaLayout splits a variant's record into its two fields: the byte offset
// of the group's LUT column (colB bytes), then what finds a weight vector's
// entry in it (sigB bytes) — nothing for OP, the p sort-permutation bytes
// for OP+LC, the byte offset of the reordering column otherwise.
func metaLayout(v Variant, spec lut.Spec) (colB, sigB int) {
	switch v {
	case OP:
		return byteWidthFor(spec.OpCols() * int64(spec.EntryBytes())), 0
	case OPLC:
		return byteWidthFor(spec.CanonicalBytes()), spec.P
	case OPLCRC, LoCaLUT:
		return byteWidthFor(spec.CanonicalBytes()), byteWidthFor(spec.ReorderBytes())
	}
	return 0, 0
}

// chunkBytes is the staging granularity for raw-code DMA transfers.
const chunkBytes = 2048

// lutSegment places one host-built LUT in the bank: functional DPUs build
// (or fetch from the process-wide cache) the table via build and map it
// read-only; accounting DPUs reserve the identical byte count without ever
// materializing the table. All packed-LUT kernels route their table setup
// through here so the two programs cannot drift.
func lutSegment(d *pim.DPU, name string, size int64, build func() ([]byte, error)) (*pim.Segment, error) {
	if d.CostOnly() {
		return d.MRAM.Reserve(name, size)
	}
	data, err := build()
	if err != nil {
		return nil, err
	}
	return d.MRAM.Map(name, data)
}

// dmaIn streams n bytes from seg[off:] into the WRAM buffer on a functional
// DPU, or charges the identical transfer on an accounting DPU. Kernels call
// it so the cost and data programs share one call site per transfer.
func dmaIn(d *pim.DPU, seg *pim.Segment, off int64, buf *pim.Buffer, n int) error {
	if d.CostOnly() {
		return d.ChargeDMARead(seg, off, int64(n))
	}
	return d.DMARead(seg, off, buf.Data[:n])
}

// dmaOut is dmaIn for the WRAM -> MRAM direction.
func dmaOut(d *pim.DPU, seg *pim.Segment, off int64, buf *pim.Buffer, n int) error {
	if d.CostOnly() {
		return d.ChargeDMAWrite(seg, off, int64(n))
	}
	return d.DMAWrite(seg, off, buf.Data[:n])
}

// flushAcc serializes the int32 column accumulator into the output buffer's
// little-endian byte image before writeback. Kernels accumulate in acc (one
// register-file-style scratch, satellite of the byte-RMW removal) and only
// touch bytes once per column.
func flushAcc(acc []int32, dst []byte) {
	for i, v := range acc {
		lut.WriteEntry(dst, i, 4, v)
	}
}

// zeroAcc clears the accumulator.
func zeroAcc(acc []int32) {
	for i := range acc {
		acc[i] = 0
	}
}
