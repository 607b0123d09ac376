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
// is the per-burst reference semantics; the streaming entry points batch it
// row by row (see stream) and tests pin the equivalence.
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

// stream applies the timing of a sequential burst train over [addr, addr+n)
// in O(rows touched) instead of O(bursts): within one DRAM row only the
// first burst can miss, every subsequent burst is a TCCD row hit, so each
// row contributes one access() outcome plus a closed-form hit count. The
// counters and cycle total are bit-identical to burst-by-burst access.
// Returns the number of bursts issued.
func (b *Bank) stream(addr, n int64) int64 {
	if n <= 0 {
		return 0
	}
	total := (n + b.T.BurstBytes - 1) / b.T.BurstBytes
	done := int64(0)
	for done < total {
		cur := addr + done*b.T.BurstBytes
		rowEnd := (cur/b.T.RowBytes + 1) * b.T.RowBytes
		inRow := (rowEnd - cur + b.T.BurstBytes - 1) / b.T.BurstBytes
		if inRow > total-done {
			inRow = total - done
		}
		b.access(cur)
		b.Cycles += (inRow - 1) * b.T.TCCD
		b.RowHits += inRow - 1
		done += inRow
	}
	return total
}

// Read streams n bytes starting at addr through column commands.
func (b *Bank) Read(addr, n int64) {
	b.Reads += b.stream(addr, n)
}

// readTrain applies count back-to-back Reads of n bytes at addr, addr+n, ...
// in O(1): the first burst is one access() outcome, row(last burst) -
// row(first burst) later bursts each open the next row, and every other burst
// is a TCCD hit. doc.go ("Command trains") shows why that is exact.
func (b *Bank) readTrain(addr, n, count int64) {
	if n <= 0 || count <= 0 {
		return
	}
	perRead := (n + b.T.BurstBytes - 1) / b.T.BurstBytes
	bursts := count * perRead
	lastRow := (addr + (count-1)*n + (perRead-1)*b.T.BurstBytes) / b.T.RowBytes
	b.access(addr)
	misses := lastRow - b.openRow
	hits := bursts - 1 - misses
	b.Cycles += misses*(b.T.TRP+b.T.TRCD+b.T.TCL) + hits*b.T.TCCD
	b.Activates += misses
	b.RowHits += hits
	b.openRow = lastRow
	b.Reads += bursts
}

// Write streams n bytes to addr.
func (b *Bank) Write(addr, n int64) {
	b.Writes += b.stream(addr, n)
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
				h := int64(n*groups+g0+j) * 2654435761
				b.Read(lutBase+h%(lutRegion-u.CanonColBytes), u.CanonColBytes)
				b.Read(reorderBase+(h>>7)%(reorderRegion-u.ReorderColBytes), u.ReorderColBytes)
			}
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
