package banksim

import (
	"fmt"
	"math"
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

// Validate rejects nonsense timings; each error names the field and its value.
// A NaN TCK fails, and so does +Inf, which would price every run at +Inf
// seconds.
func (t Timing) Validate() error {
	if !(t.TCK > 0) || math.IsInf(t.TCK, 1) {
		return fmt.Errorf("banksim: TCK %g ns must be positive and finite", t.TCK)
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"TRCD", t.TRCD}, {"TCL", t.TCL}, {"TRP", t.TRP}, {"TCCD", t.TCCD},
		{"RowBytes", t.RowBytes}, {"BurstBytes", t.BurstBytes},
	} {
		if f.v <= 0 {
			return fmt.Errorf("banksim: %s %d must be positive", f.name, f.v)
		}
	}
	if t.RowBytes%t.BurstBytes != 0 {
		return fmt.Errorf("banksim: RowBytes %d is not a multiple of BurstBytes %d", t.RowBytes, t.BurstBytes)
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
// timing, so RunGEMMOn can recycle a caller-owned struct.
func (b *Bank) reset(t Timing) { *b = Bank{T: t, openRow: -1} }

// rowState is the part of a Bank the charging rule updates: the open row (-1
// when precharged), cycles, activates and row hits. It is four words, so a
// loop that copies it into a local keeps it in registers.
type rowState struct {
	open, cycles, activates, hits int64
}

// rows returns the bank's row state; setRows stores one back.
func (b *Bank) rows() rowState { return rowState{b.openRow, b.Cycles, b.Activates, b.RowHits} }

func (b *Bank) setRows(s rowState) {
	b.openRow, b.Cycles, b.Activates, b.RowHits = s.open, s.cycles, s.activates, s.hits
}

// train is the charging rule. It prices bursts column commands whose first
// burst starts in row first and whose last burst starts in row last, rows
// that never decrease and never skip from one burst to the next. Of the
// bursts after the first, last-first open the next row, each a TRP+TRCD+TCL
// conflict, and the rest are TCCD hits. The first burst is one more hit on
// the open row, TRCD+TCL on a precharged bank, or one more conflict. doc.go
// ("Command trains") shows why that is exact.
func (s rowState) train(t *Timing, first, last, bursts int64) rowState {
	misses := last - first
	hits := bursts - 1 - misses
	switch {
	case s.open == first:
		hits++
	case s.open < 0:
		s.cycles += t.TRCD + t.TCL
		s.activates++
	default:
		misses++
	}
	s.cycles += misses*(t.TRP+t.TRCD+t.TCL) + hits*t.TCCD
	s.activates += misses
	s.hits += hits
	s.open = last
	return s
}

// train applies the rule to bursts column commands whose start addresses rise
// from first to last in steps of at most BurstBytes. Callers count the bursts
// as Reads or Writes.
func (b *Bank) train(first, last, bursts int64) {
	b.setRows(b.rows().train(&b.T, first/b.T.RowBytes, last/b.T.RowBytes, bursts))
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

// RunGEMMOn is RunGEMM on a caller-owned Bank, reset here, so a caller
// that simulates many shares can reuse one Bank.
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

// sliceCursor is one slice stream at one idx: its offset off in [0, d) and
// the DRAM row and in-row column of base+off, where its first burst starts.
// It is three words, so a loop keeps it in registers.
type sliceCursor struct{ off, row, col int64 }

// sliceWalk steps a sliceCursor from idx to idx+1 without multiplying or
// dividing. h grows by sliceHash, so the canonical offset grows by
// sliceHash mod d, and the reordering offset by (sliceHash>>7) mod d plus the
// carry out of h's low seven bits. Each sum stays below twice d, so one
// conditional subtract reduces it. The step and the wrap by d are split once
// into whole rows and leftover bytes, so the cursor's column takes at most one
// carry or borrow from its row per step. Unlike idx*sliceHash the walk cannot
// wrap int64.
type sliceWalk struct {
	d, step            int64
	rowBytes           int64
	stepRows, stepCols int64
	wrapRows, wrapCols int64
	// A slice's last burst starts span bytes after its first: spanRows whole
	// rows later, plus one more when the column reaches spanLim.
	spanRows, spanLim int64
}

// newSliceWalk returns the walk of a stream with room d >= 1 and offset step
// step < d, whose slices' last bursts start span bytes after their first.
func newSliceWalk(t Timing, d, step, span int64) sliceWalk {
	r := t.RowBytes
	return sliceWalk{
		d: d, step: step, rowBytes: r,
		stepRows: step / r, stepCols: step % r,
		wrapRows: d / r, wrapCols: d % r,
		spanRows: span / r, spanLim: r - span%r,
	}
}

// start returns the cursor of idx 0, offset 0 from base.
func (w *sliceWalk) start(base int64) sliceCursor {
	return sliceCursor{row: base / w.rowBytes, col: base % w.rowBytes}
}

// last returns the row the cursor's last burst starts in.
func (w *sliceWalk) last(c sliceCursor) int64 {
	return c.row + w.spanRows - (w.spanLim-1-c.col)>>63
}

// next steps the cursor by step+carry, carry 0 or 1. The column's carry is a
// sign mask: the in-row column is effectively random, so a branch on it would
// mispredict often.
func (w *sliceWalk) next(c sliceCursor, carry int64) sliceCursor {
	c.off += w.step + carry
	c.col += w.stepCols + carry
	m := (w.rowBytes - 1 - c.col) >> 63 // -1 when the column passed the row
	c.col -= w.rowBytes & m
	c.row += w.stepRows - m
	if c.off >= w.d {
		c.off -= w.d
		c.col -= w.wrapCols
		m = c.col >> 63 // -1 when the column borrowed from the row
		c.col += w.rowBytes & m
		c.row += m - w.wrapRows
	}
	return c
}

// RunGEMM simulates one bank's share: for every batch of Units activation
// groups, slices stream into the unit SRAMs, then packed weight bursts are
// looked up by all units in parallel.
func (u *LUTPIM) RunGEMM(g GEMMSpec) (*Result, error) {
	return u.RunGEMMOn(new(Bank), g)
}

// RunGEMMOn is RunGEMM on a caller-owned Bank, reset here, so a caller
// that simulates many shares can reuse one Bank.
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
	dCanon, dReorder := lutRegion-u.CanonColBytes, reorderRegion-u.ReorderColBytes
	canonWalk := newSliceWalk(u.T, dCanon, sliceHash%dCanon, (canonBursts-1)*u.T.BurstBytes)
	reorderWalk := newSliceWalk(u.T, dReorder, (sliceHash>>7)%dReorder, (reorderBursts-1)*u.T.BurstBytes)
	// The loops below visit activation groups n*groups+g0+j = 0, 1, 2, ... in
	// order, ragged last batch included, so the cursors step with them.
	canon, reorder := canonWalk.start(lutBase), reorderWalk.start(reorderBase)
	var low int64 // h & 127

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
			rs := b.rows()
			for j := 0; j < batch; j++ {
				rs = rs.train(&u.T, canon.row, canonWalk.last(canon), canonBursts)
				rs = rs.train(&u.T, reorder.row, reorderWalk.last(reorder), reorderBursts)
				canon = canonWalk.next(canon, 0)
				low += sliceHash & 127
				reorder = reorderWalk.next(reorder, low>>7)
				low &= 127
			}
			b.setRows(rs)
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
