package banksim

import (
	"fmt"
)

// Timing holds the DRAM bank command timings (in device cycles) and
// geometry. Defaults follow an HBM2-class stack.
type Timing struct {
	TCK  float64 // ns per cycle
	TRCD int64   // ACT -> RD
	TCL  int64   // RD -> data
	TRP  int64   // PRE -> ACT
	TCCD int64   // column-to-column (burst gap)
	// RowBytes is the DRAM row (page) size; BurstBytes is the data moved
	// per column command.
	RowBytes   int64
	BurstBytes int64
}

// HBM2 returns the stack timing used for the bank-level PIM study.
func HBM2() Timing {
	return Timing{
		TCK: 1.0, TRCD: 14, TCL: 14, TRP: 14, TCCD: 2,
		RowBytes: 1024, BurstBytes: 32,
	}
}

// DDR4 returns commodity DIMM timings (DDR4-2400 class), for studying the
// bank-level designs on UPMEM-like substrates instead of an HBM stack.
func DDR4() Timing {
	return Timing{
		TCK: 0.833, TRCD: 17, TCL: 17, TRP: 17, TCCD: 4,
		RowBytes: 8192, BurstBytes: 64,
	}
}

// Validate rejects nonsense timings.
func (t Timing) Validate() error {
	if t.TCK <= 0 || t.TRCD <= 0 || t.TCL <= 0 || t.TRP <= 0 || t.TCCD <= 0 {
		return fmt.Errorf("banksim: nonpositive timing %+v", t)
	}
	if t.RowBytes <= 0 || t.BurstBytes <= 0 || t.RowBytes%t.BurstBytes != 0 {
		return fmt.Errorf("banksim: bad geometry row=%d burst=%d", t.RowBytes, t.BurstBytes)
	}
	return nil
}

// Bank is one DRAM bank's row-buffer state machine with cycle accounting.
type Bank struct {
	T       Timing
	openRow int64 // -1 when precharged
	Cycles  int64
	// Stats.
	Activates, RowHits, Reads, Writes int64
}

// NewBank returns a precharged bank.
func NewBank(t Timing) *Bank { return &Bank{T: t, openRow: -1} }

// reset returns the bank to the precharged zero-cycle state under the
// timing, recycling the struct for per-worker reuse (see ArenaRunner).
func (b *Bank) reset(t Timing) { *b = Bank{T: t, openRow: -1} }

// access applies the timing for one column command on the byte address. It
// is the per-burst reference semantics; train prices whole transfers in its
// terms and tests pin the equivalence.
func (b *Bank) access(addr int64) {
	row := addr / b.T.RowBytes
	switch {
	case b.openRow == row:
		b.Cycles += b.T.TCCD
		b.RowHits++
	case b.openRow < 0:
		b.Cycles += b.T.TRCD + b.T.TCL
		b.openRow = row
		b.Activates++
	default:
		b.Cycles += b.T.TRP + b.T.TRCD + b.T.TCL
		b.openRow = row
		b.Activates++
	}
}

// train applies the timing of bursts column commands whose start addresses
// rise from first to last in steps of at most BurstBytes, in O(1): the first
// burst is one access() outcome, row(last) - row(first) later bursts each
// open the next row, and every other burst is a TCCD hit. doc.go ("Command
// trains") shows why that is exact. Callers count the bursts as Reads or
// Writes.
func (b *Bank) train(first, last, bursts int64) {
	lastRow := last / b.T.RowBytes
	b.access(first)
	misses := lastRow - b.openRow
	hits := bursts - 1 - misses
	b.Cycles += misses*(b.T.TRP+b.T.TRCD+b.T.TCL) + hits*b.T.TCCD
	b.Activates += misses
	b.RowHits += hits
	b.openRow = lastRow
}

// bursts is the number of column commands a transfer of n > 0 bytes issues.
func (t Timing) bursts(n int64) int64 { return (n + t.BurstBytes - 1) / t.BurstBytes }

// Read streams n bytes starting at addr through column commands.
func (b *Bank) Read(addr, n int64) {
	if n <= 0 {
		return
	}
	bursts := b.T.bursts(n)
	b.train(addr, addr+(bursts-1)*b.T.BurstBytes, bursts)
	b.Reads += bursts
}

// readTrain applies count back-to-back Reads of n bytes at addr, addr+n, ...
// as one train: every Read issues its bursts from its own start, so the last
// burst begins at the last Read's address plus its whole bursts but one.
func (b *Bank) readTrain(addr, n, count int64) {
	if n <= 0 || count <= 0 {
		return
	}
	perRead := b.T.bursts(n)
	b.train(addr, addr+(count-1)*n+(perRead-1)*b.T.BurstBytes, count*perRead)
	b.Reads += count * perRead
}

// Write streams n bytes to addr.
func (b *Bank) Write(addr, n int64) {
	if n <= 0 {
		return
	}
	bursts := b.T.bursts(n)
	b.train(addr, addr+(bursts-1)*b.T.BurstBytes, bursts)
	b.Writes += bursts
}

// Seconds converts accumulated cycles to seconds.
func (b *Bank) Seconds() float64 { return float64(b.Cycles) * b.T.TCK * 1e-9 }

// GEMMSpec describes one bank's GEMM share for the unit simulators. Bytes
// per element are physical storage widths (fp16 for SIMD; packed codes for
// LUT designs).
type GEMMSpec struct {
	M, K, N int
}

// Validate rejects empty problems.
func (g GEMMSpec) Validate() error {
	if g.M <= 0 || g.K <= 0 || g.N <= 0 {
		return fmt.Errorf("banksim: invalid GEMM %+v", g)
	}
	return nil
}

// Result reports one simulated execution.
type Result struct {
	Cycles  int64
	Seconds float64
	// Commands and row behaviour for diagnostics.
	Reads, Writes, Activates, RowHits int64
	MACs                              int64
}

func result(b *Bank, macs int64) *Result {
	return &Result{
		Cycles: b.Cycles, Seconds: b.Seconds(),
		Reads: b.Reads, Writes: b.Writes,
		Activates: b.Activates, RowHits: b.RowHits,
		MACs: macs,
	}
}

// SIMDPIM models the HBM-PIM-style 16-lane fp16 MAC unit. Weights stream
// from the bank (2 bytes per element regardless of logical precision — the
// datapath is fixed fp16); activations are held in the unit register file
// per output column group; outputs write back once per row.
type SIMDPIM struct {
	Lanes int
	T     Timing
}

// NewSIMDPIM returns the 16-lane baseline.
func NewSIMDPIM(t Timing) *SIMDPIM { return &SIMDPIM{Lanes: 16, T: t} }

// RunGEMM simulates the command stream of one bank's M x K x N share.
func (s *SIMDPIM) RunGEMM(g GEMMSpec) (*Result, error) {
	return s.RunGEMMOn(new(Bank), g)
}

// RunGEMMOn is RunGEMM on a caller-owned Bank (reset here), the
// ArenaRunner entry point shard workers use to avoid per-share allocation.
func (s *SIMDPIM) RunGEMMOn(b *Bank, g GEMMSpec) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := s.T.Validate(); err != nil {
		return nil, err
	}
	const elemBytes = 2 // fp16 datapath
	if s.T.BurstBytes < elemBytes {
		return nil, fmt.Errorf("banksim: %d B burst is narrower than an fp16 element", s.T.BurstBytes)
	}
	b.reset(s.T)
	wBase := int64(0)
	aBase := int64(g.M) * int64(g.K) * elemBytes
	oBase := aBase + int64(g.K)*int64(g.N)*elemBytes

	rowBytes := int64(g.K) * elemBytes
	for n := 0; n < g.N; n++ {
		// Load the activation column into the unit register file.
		b.Read(aBase+int64(n)*rowBytes, rowBytes)
		// Stream the weight rows; each burst feeds Lanes MACs and the MAC
		// latency is pipelined behind the command stream. Output writeback
		// is one element amortized per burst width, so most columns are
		// one uninterrupted read train over W.
		if n%int(s.T.BurstBytes/elemBytes) != 0 {
			b.readTrain(wBase, rowBytes, int64(g.M))
			continue
		}
		for m := 0; m < g.M; m++ {
			b.Read(wBase+int64(m)*rowBytes, rowBytes)
			b.Write(oBase+int64(m)*elemBytes, elemBytes)
		}
	}
	return result(b, int64(g.M)*int64(g.K)*int64(g.N)), nil
}

// LUTPIM models the LoCaLUT bank-level design of Fig. 20(a): Units
// canonical-LUT SRAMs of UnitBytes each, fed by slice streams from the
// bank's LUT region and packed weight bursts.
type LUTPIM struct {
	Units     int
	UnitBytes int
	T         Timing
	// P is the packing degree; WeightRowBytes and EntryBytes the packed
	// vector and LUT entry widths; CanonColBytes and ReorderColBytes the
	// two slice columns streamed per activation group (they live in
	// different tables, so each load starts a fresh DRAM row).
	P               int
	WeightRowBytes  int
	EntryBytes      int
	CanonColBytes   int64
	ReorderColBytes int64
	// LookupsPerCycle is the per-unit SRAM lookup throughput (a reorder
	// access plus a canonical access per group gives 0.5).
	LookupsPerCycle float64
}

// NewLUTPIM configures the design for a packing degree and entry widths.
// Call ConfigureSlices before RunGEMM.
func NewLUTPIM(t Timing, p, weightRowBytes, entryBytes int) (*LUTPIM, error) {
	if p < 1 {
		return nil, fmt.Errorf("banksim: p=%d", p)
	}
	if weightRowBytes < 1 || entryBytes < 1 {
		return nil, fmt.Errorf("banksim: widths rb=%d bo=%d", weightRowBytes, entryBytes)
	}
	return &LUTPIM{
		Units: 16, UnitBytes: 512, T: t,
		P: p, WeightRowBytes: weightRowBytes, EntryBytes: entryBytes,
		LookupsPerCycle: 0.5,
	}, nil
}

// The bank address map of the LUT design: packed weights, then the
// canonical-LUT region, the reordering-LUT region and the outputs.
const (
	lutRegion     = int64(32 << 20)
	reorderRegion = int64(16 << 20)
)

// checkSlices rejects slice columns that are empty or leave no room to place
// them in their region (RunGEMMOn draws offsets modulo region-column).
func checkSlices(canonColBytes, reorderColBytes int64) error {
	if canonColBytes <= 0 || reorderColBytes <= 0 {
		return fmt.Errorf("banksim: slice sizes must be positive")
	}
	if canonColBytes >= lutRegion || reorderColBytes >= reorderRegion {
		return fmt.Errorf("banksim: slice columns %d B / %d B overflow their LUT regions", canonColBytes, reorderColBytes)
	}
	return nil
}

// ConfigureSlices sets the streamed slice sizes (canonical column +
// reordering column) and validates the canonical column against the unit
// SRAM capacity and both against their DRAM regions.
func (u *LUTPIM) ConfigureSlices(canonColBytes, reorderColBytes int64) error {
	if canonColBytes > int64(u.UnitBytes) {
		return fmt.Errorf("banksim: canonical slice %d B exceeds %d B unit SRAM", canonColBytes, u.UnitBytes)
	}
	if err := checkSlices(canonColBytes, reorderColBytes); err != nil {
		return err
	}
	u.CanonColBytes = canonColBytes
	u.ReorderColBytes = reorderColBytes
	return nil
}

// sliceHash spreads consecutive activation groups over the LUT regions: group
// idx reads its canonical column at h % dCanon and its reordering column at
// (h>>7) % dReorder, h = idx*sliceHash, each d the room left in the region.
const sliceHash = 2654435761

// sliceOffsets holds those two offsets for one idx and steps them to the
// next idx without multiplying or dividing: h grows by sliceHash, so the
// first offset grows by sliceHash mod dCanon and the second by
// (sliceHash>>7) mod dReorder plus the carry out of h's low seven bits, and
// each sum stays below twice its divisor, so one conditional subtract reduces
// it. Unlike idx*sliceHash the walk cannot wrap int64.
type sliceOffsets struct {
	canon, reorder         int64
	low                    int64 // h & 127
	dCanon, dReorder       int64
	stepCanon, stepReorder int64
}

// newSliceOffsets returns the offsets of idx 0 under the two divisors (>= 1).
func newSliceOffsets(dCanon, dReorder int64) sliceOffsets {
	return sliceOffsets{
		dCanon: dCanon, dReorder: dReorder,
		stepCanon: sliceHash % dCanon, stepReorder: (sliceHash >> 7) % dReorder,
	}
}

// next advances to idx+1.
func (o *sliceOffsets) next() {
	o.canon += o.stepCanon
	if o.canon >= o.dCanon {
		o.canon -= o.dCanon
	}
	o.low += sliceHash & 127
	o.reorder += o.stepReorder + o.low>>7
	o.low &= 127
	if o.reorder >= o.dReorder {
		o.reorder -= o.dReorder
	}
}

// RunGEMM simulates one bank's share: for every batch of Units activation
// groups, slices stream into the unit SRAMs, then packed weight bursts are
// looked up by all units in parallel.
func (u *LUTPIM) RunGEMM(g GEMMSpec) (*Result, error) {
	return u.RunGEMMOn(new(Bank), g)
}

// RunGEMMOn is RunGEMM on a caller-owned Bank (reset here), the
// ArenaRunner entry point shard workers use to avoid per-share allocation.
func (u *LUTPIM) RunGEMMOn(b *Bank, g GEMMSpec) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := u.T.Validate(); err != nil {
		return nil, err
	}
	if u.CanonColBytes <= 0 {
		return nil, fmt.Errorf("banksim: slices not configured")
	}
	// The fields are exported, so a caller can bypass the constructors.
	if err := checkSlices(u.CanonColBytes, u.ReorderColBytes); err != nil {
		return nil, err
	}
	if u.Units < 1 || u.P < 1 || !(u.LookupsPerCycle > 0) {
		return nil, fmt.Errorf("banksim: units=%d p=%d lookups/cycle=%g must all be positive",
			u.Units, u.P, u.LookupsPerCycle)
	}
	b.reset(u.T)
	groups := (g.K + u.P - 1) / u.P
	wBase := int64(0)
	wBytes := int64(groups) * int64(g.M) * int64(u.WeightRowBytes)
	lutBase := wBytes
	reorderBase := lutBase + lutRegion
	oBase := reorderBase + reorderRegion

	// Both slice lengths are fixed for the run, so their burst counts and the
	// distance from a slice's first burst to its last are too.
	canonBursts, reorderBursts := u.T.bursts(u.CanonColBytes), u.T.bursts(u.ReorderColBytes)
	canonSpan, reorderSpan := (canonBursts-1)*u.T.BurstBytes, (reorderBursts-1)*u.T.BurstBytes
	// The loops below visit activation groups n*groups+g0+j = 0, 1, 2, ... in
	// order, ragged last batch included, so the offsets step with them.
	off := newSliceOffsets(lutRegion-u.CanonColBytes, reorderRegion-u.ReorderColBytes)

	var macs int64
	var computeCycles int64
	rowCompute := int64(float64(1) / u.LookupsPerCycle)
	for n := 0; n < g.N; n++ {
		for g0 := 0; g0 < groups; g0 += u.Units {
			batch := u.Units
			if g0+batch > groups {
				batch = groups - g0
			}
			// Slice streaming: each unit's canonical and reordering
			// columns come from effectively random rows of their tables,
			// so each of the two loads opens its own row.
			for j := 0; j < batch; j++ {
				canon, reorder := lutBase+off.canon, reorderBase+off.reorder
				b.train(canon, canon+canonSpan, canonBursts)
				b.train(reorder, reorder+reorderSpan, reorderBursts)
				off.next()
			}
			b.Reads += int64(batch) * (canonBursts + reorderBursts)
			// Per-batch activation metadata (column/permutation ids).
			b.Read(oBase+int64(g.M)*2+int64(n*groups+g0)*4, int64(batch)*4)
			// Weight streaming: one burst carries packed vectors for the
			// whole unit array; the M rows of W for this group batch are
			// contiguous, so they are one read train. Unit lookup
			// throughput may exceed the command stream; track compute
			// separately and take the max at the end.
			rowBytes := int64(batch * u.WeightRowBytes)
			b.readTrain(wBase+int64((g0/u.Units)*g.M)*rowBytes, rowBytes, int64(g.M))
			macs += int64(g.M) * int64(batch) * int64(u.P)
			computeCycles += int64(g.M) * rowCompute
			// Output update per row handled in unit accumulators; write
			// back once per column batch end.
		}
		b.Write(oBase+int64(n)*int64(g.M)*2, int64(g.M)*2)
	}
	if computeCycles > b.Cycles {
		b.Cycles = computeCycles
	}
	return result(b, macs), nil
}
