// Package pim models an UPMEM-class DRAM-PIM system at the
// functional-plus-cycle-accounting level LoCaLUT's evaluation needs.
//
// Each DPU owns a 64 MB MRAM bank (the "DRAM bank" of the paper), a 64 KB
// WRAM scratchpad (the "local buffer"), a DMA engine between them, and an
// in-order core clocked at 350 MHz. Kernels move real bytes through these
// objects — a DMA both copies data and charges cycles, a lookup both reads
// the byte and charges the instruction budget — so functional correctness
// and timing come from the same execution.
//
// Timing calibration follows §VI-I of the paper: the authors profile
// L_D = 1.36e-9 s to stream one canonical+reordering LUT entry pair from
// the bank into WRAM (a 3-4 byte pair under dynamic entry sizing, giving an
// effective pipelined DMA rate of ~7 B/cycle), and L_local = 3.27e-8 s
// (~11.5 cycles) for one reordering lookup + one canonical lookup +
// accumulation, quoted as "12 instructions". Those constants are the
// defaults here; everything else (instruction class costs, transfer
// bandwidths) is documented alongside its source.
package pim

import (
	"fmt"
	"math"
)

// EventClass enumerates the charged event kinds. The Meter tracks one
// counter per class so the energy model can price them independently.
type EventClass int

const (
	// EvInstr is a generic single-issue DPU instruction (ALU op, WRAM
	// load/store, branch). UPMEM DPUs are single-issue in-order; most
	// instructions retire in one cycle from the pipeline's view.
	EvInstr EventClass = iota
	// EvMul8 is a native 8x8-bit multiply (UPMEM exposes an 8-bit
	// multiplier; wider products are composed in software).
	EvMul8
	// EvMul32 is a software 32-bit multiply composed from mul steps.
	EvMul32
	// EvDMARead counts bytes DMA-transferred MRAM -> WRAM.
	EvDMARead
	// EvDMAWrite counts bytes DMA-transferred WRAM -> MRAM.
	EvDMAWrite
	// EvWRAMAccess counts explicit WRAM data accesses charged by kernels
	// (already cycle-priced inside EvInstr charges; kept separately for the
	// energy model).
	EvWRAMAccess
	// EvHostToPIM counts bytes moved host -> PIM over the memory channel.
	EvHostToPIM
	// EvPIMToHost counts bytes moved PIM -> host.
	EvPIMToHost
	numEventClasses
)

var eventNames = [...]string{
	"instr", "mul8", "mul32", "dma_read_bytes", "dma_write_bytes",
	"wram_access", "host_to_pim_bytes", "pim_to_host_bytes",
}

func (e EventClass) String() string {
	if e >= 0 && int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("EventClass(%d)", int(e))
}

// Config holds the machine parameters. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	// Topology (matches the paper's 32-rank UPMEM testbed: 64 banks/rank,
	// 2048 DPUs total, §V-A).
	Ranks        int
	BanksPerRank int

	// Per-bank capacities.
	MRAMBytes int64 // 64 MiB DRAM bank
	WRAMBytes int   // 64 KiB SRAM local buffer

	// DPU core.
	ClockHz float64 // 350 MHz

	// DMA engine: a transfer of n bytes costs
	// DMASetupCycles + n / DMABytesPerCycle cycles.
	// DMABytesPerCycle = 2.1 reproduces the paper's pipelined
	// L_D = 1.36e-9 s per streamed byte (~735 MB/s, matching measured
	// UPMEM MRAM->WRAM DMA bandwidth); DMASetupCycles models the fixed
	// MRAM access latency that makes per-lookup bank accesses (the
	// Fig. 3(a) DRAM-sized LUT design) unattractive.
	DMABytesPerCycle float64
	DMASetupCycles   int64

	// Instruction class costs in cycles.
	CyclesPerInstr int64
	CyclesPerMul8  int64
	CyclesPerMul32 int64

	// Host link, aggregate across all ranks. With transfers parallelized
	// over 32 ranks (PrIM-style batched xfer), UPMEM reaches several GB/s
	// in each direction; broadcast of identical payloads is faster still.
	HostToPIMBW     float64 // bytes/s, distinct data
	PIMToHostBW     float64 // bytes/s
	HostBroadcastBW float64 // bytes/s, same data to all banks

	// Fraction of MRAM/WRAM the runtime devotes to LUTs. §V-A devotes
	// "approximately half the capacity"; 0.55 is the soft-half that makes
	// the paper's own residence choices work out (the W4A4 p=2 canonical
	// table is 34.8 KB, just over a hard 32 KB half of WRAM, yet Fig. 18
	// reports it buffer-resident).
	LUTBudgetFrac float64
}

// DefaultConfig returns the paper's UPMEM testbed configuration.
func DefaultConfig() Config {
	return Config{
		Ranks:            32,
		BanksPerRank:     64,
		MRAMBytes:        64 << 20,
		WRAMBytes:        64 << 10,
		ClockHz:          350e6,
		DMABytesPerCycle: 2.1,
		DMASetupCycles:   32,
		CyclesPerInstr:   1,
		CyclesPerMul8:    2,
		CyclesPerMul32:   10,
		HostToPIMBW:      8.0e9,
		PIMToHostBW:      5.0e9,
		HostBroadcastBW:  12.0e9,
		LUTBudgetFrac:    0.55,
	}
}

// Validate checks the configuration for obvious nonsense; each error names the
// field and its value. The checks are written so a NaN fails them, and a clock
// or rate of +Inf, which would price work at zero time, is rejected too.
func (c *Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"Ranks", int64(c.Ranks)}, {"BanksPerRank", int64(c.BanksPerRank)},
		{"MRAMBytes", c.MRAMBytes}, {"WRAMBytes", int64(c.WRAMBytes)},
	} {
		if f.v <= 0 {
			return fmt.Errorf("pim: %s %d must be positive", f.name, f.v)
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ClockHz", c.ClockHz}, {"DMABytesPerCycle", c.DMABytesPerCycle},
		{"HostToPIMBW", c.HostToPIMBW}, {"PIMToHostBW", c.PIMToHostBW}, {"HostBroadcastBW", c.HostBroadcastBW},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("pim: %s %g must be positive and finite", f.name, f.v)
		}
	}
	if !(c.LUTBudgetFrac > 0 && c.LUTBudgetFrac <= 1) {
		return fmt.Errorf("pim: LUTBudgetFrac %g outside (0,1]", c.LUTBudgetFrac)
	}
	return nil
}

// NumDPUs returns the total processing element count.
func (c *Config) NumDPUs() int { return c.Ranks * c.BanksPerRank }

// MRAMLUTBudget returns the per-bank byte budget for LUT storage.
func (c *Config) MRAMLUTBudget() int64 {
	return int64(float64(c.MRAMBytes) * c.LUTBudgetFrac)
}

// WRAMLUTBudget returns the per-buffer byte budget for LUT storage.
func (c *Config) WRAMLUTBudget() int64 {
	return int64(float64(c.WRAMBytes) * c.LUTBudgetFrac)
}

// Seconds converts a cycle count to wall time under this config.
func (c *Config) Seconds(cycles int64) float64 {
	return float64(cycles) / c.ClockHz
}

// Meter accumulates cycles and event counts for one DPU (or one aggregated
// timeline). The zero value is ready to use.
type Meter struct {
	Cycles int64
	Counts [numEventClasses]int64
}

// Add charges n events of the class and the corresponding cycles under cfg.
func (m *Meter) add(class EventClass, n int64) {
	m.Counts[class] += n
}

// Count returns the accumulated count for a class.
func (m *Meter) Count(class EventClass) int64 { return m.Counts[class] }

// Merge adds other's counters into m (used to aggregate DPU meters into a
// system meter for energy accounting).
func (m *Meter) Merge(other *Meter) {
	if other.Cycles > m.Cycles {
		// Parallel banks: wall-clock is the max, not the sum.
		m.Cycles = other.Cycles
	}
	for i := range m.Counts {
		m.Counts[i] += other.Counts[i]
	}
}

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }

// Segment is a named MRAM allocation. Size is always the allocated byte
// count; Data backs it with host memory only on functional banks (on an
// accounting bank Data stays nil and only the capacity bookkeeping and DMA
// charges exist).
type Segment struct {
	Name string
	Off  int64
	Size int64
	Data []byte
	// ro marks a segment mapped over shared host memory (see MRAM.Map);
	// DMAWrite refuses to touch it.
	ro bool
}

// MRAM is the per-bank DRAM array, modelled as a bump allocator of named
// segments. Only touched segments allocate host memory, so simulating a
// few representative banks of a 128 GB system stays cheap. A cost-only
// MRAM (NewAccountingDPU) allocates no host memory at all: segments keep
// their sizes and offsets for capacity and bounds checking, but carry no
// bytes.
//
// Reset retires every live segment into a name-keyed recycle pool instead
// of dropping it: a kernel rerun on the same DPU allocates the same segment
// names, so steady-state execution reuses the retired backing arrays
// (zeroed, exactly as a fresh make would return them) and allocates
// nothing. Mapped (read-only) segments never donate their shared bytes to
// the pool.
type MRAM struct {
	capacity int64
	used     int64
	costOnly bool
	segs     map[string]*Segment
	retired  map[string]*Segment
}

// newMRAM returns a bank, segment-less when costOnly.
func newMRAM(capacity int64, costOnly bool) *MRAM {
	return &MRAM{
		capacity: capacity,
		costOnly: costOnly,
		segs:     make(map[string]*Segment),
		retired:  make(map[string]*Segment),
	}
}

// take pops a retired segment for reuse under name, or returns a fresh one.
// The returned segment carries whatever Data array it retired with (never a
// shared read-only mapping — Reset strips those).
func (m *MRAM) take(name string) *Segment {
	if seg, ok := m.retired[name]; ok {
		delete(m.retired, name)
		return seg
	}
	return &Segment{}
}

// Reset retires every segment and empties the bank. Owned backing arrays
// stay with their retired segments for reuse by the next same-named Alloc;
// shared read-only mappings are detached so recycled storage can never
// alias a cached table.
func (m *MRAM) Reset() {
	for name, seg := range m.segs {
		if seg.ro {
			seg.Data = nil
			seg.ro = false
		}
		m.retired[name] = seg
		delete(m.segs, name)
	}
	m.used = 0
}

// Alloc reserves size bytes under name. It fails when the bank is full —
// the capacity-overflow failure mode §VII-B discusses.
func (m *MRAM) Alloc(name string, size int64) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pim: MRAM alloc %q: size %d invalid", name, size)
	}
	if _, dup := m.segs[name]; dup {
		return nil, fmt.Errorf("pim: MRAM alloc %q: duplicate segment", name)
	}
	if m.used+size > m.capacity {
		return nil, fmt.Errorf("pim: MRAM alloc %q: %d bytes requested, %d of %d free",
			name, size, m.capacity-m.used, m.capacity)
	}
	seg := m.take(name)
	*seg = Segment{Name: name, Off: m.used, Size: size, Data: seg.Data}
	if !m.costOnly {
		if int64(cap(seg.Data)) >= size {
			seg.Data = seg.Data[:size]
			clear(seg.Data)
		} else {
			seg.Data = make([]byte, size)
		}
	} else {
		seg.Data = nil
	}
	m.used += size
	m.segs[name] = seg
	return seg, nil
}

// Reserve records a segment of the given size without ever backing it with
// host memory, whatever the bank mode. It exists for tables whose contents
// the caller never materializes (a cycles-only kernel charging the DMA cost
// of a LUT it will not read): capacity accounting works exactly as for
// Alloc, but the bytes do not exist — only the ChargeDMA* entry points
// accept such a segment (DMARead rejects it, DMAWrite rejects it as
// read-only).
func (m *MRAM) Reserve(name string, size int64) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pim: MRAM reserve %q: size %d invalid", name, size)
	}
	if _, dup := m.segs[name]; dup {
		return nil, fmt.Errorf("pim: MRAM reserve %q: duplicate segment", name)
	}
	if m.used+size > m.capacity {
		return nil, fmt.Errorf("pim: MRAM reserve %q: %d bytes requested, %d of %d free",
			name, size, m.capacity-m.used, m.capacity)
	}
	seg := m.take(name)
	*seg = Segment{Name: name, Off: m.used, Size: size, ro: true}
	m.used += size
	m.segs[name] = seg
	return seg, nil
}

// Map reserves len(data) bytes under name like Alloc but aliases the
// caller's slice instead of copying it. It exists for immutable shared
// tables (the process-wide LUT cache): when thousands of banks hold the
// same multi-megabyte LUT, mapping keeps the sharded simulation's host
// memory and setup time independent of the bank count. Mapped segments are
// read-only; DMAWrite rejects them.
func (m *MRAM) Map(name string, data []byte) (*Segment, error) {
	size := int64(len(data))
	if size <= 0 {
		return nil, fmt.Errorf("pim: MRAM map %q: size %d invalid", name, size)
	}
	if _, dup := m.segs[name]; dup {
		return nil, fmt.Errorf("pim: MRAM map %q: duplicate segment", name)
	}
	if m.used+size > m.capacity {
		return nil, fmt.Errorf("pim: MRAM map %q: %d bytes requested, %d of %d free",
			name, size, m.capacity-m.used, m.capacity)
	}
	seg := m.take(name)
	*seg = Segment{Name: name, Off: m.used, Size: size, Data: data, ro: true}
	m.used += size
	m.segs[name] = seg
	return seg, nil
}

// WRAM is the per-DPU scratchpad with the same named bump allocation. A
// cost-only WRAM tracks sizes without allocating bytes, like a cost-only
// MRAM. Like MRAM, released buffers are retired into a name-keyed recycle
// pool so repeated kernel runs on one DPU stop allocating.
type WRAM struct {
	capacity int
	used     int
	costOnly bool
	bufs     map[string]*Buffer
	retired  map[string]*Buffer
}

// Buffer is a named WRAM allocation. Size is always the allocated byte
// count; Data is nil on accounting DPUs.
type Buffer struct {
	Name string
	Size int
	Data []byte
}

// newWRAM returns a scratchpad, byte-less when costOnly.
func newWRAM(capacity int, costOnly bool) *WRAM {
	return &WRAM{
		capacity: capacity,
		costOnly: costOnly,
		bufs:     make(map[string]*Buffer),
		retired:  make(map[string]*Buffer),
	}
}

// Alloc reserves size bytes under name, failing when WRAM is exhausted —
// this is the constraint that caps p_local and k (§VI-D "k sensitivity").
func (w *WRAM) Alloc(name string, size int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pim: WRAM alloc %q: size %d invalid", name, size)
	}
	if _, dup := w.bufs[name]; dup {
		return nil, fmt.Errorf("pim: WRAM alloc %q: duplicate buffer", name)
	}
	if w.used+size > w.capacity {
		return nil, fmt.Errorf("pim: WRAM alloc %q: %d bytes requested, %d of %d free",
			name, size, w.capacity-w.used, w.capacity)
	}
	buf, ok := w.retired[name]
	if ok {
		delete(w.retired, name)
	} else {
		buf = &Buffer{}
	}
	*buf = Buffer{Name: name, Size: size, Data: buf.Data}
	if !w.costOnly {
		if cap(buf.Data) >= size {
			buf.Data = buf.Data[:size]
			clear(buf.Data)
		} else {
			buf.Data = make([]byte, size)
		}
	} else {
		buf.Data = nil
	}
	w.used += size
	w.bufs[name] = buf
	return buf, nil
}

// FreeAll releases every buffer (kernel teardown), retiring the backing
// arrays for reuse by the next same-named Alloc.
func (w *WRAM) FreeAll() {
	for name, buf := range w.bufs {
		w.retired[name] = buf
		delete(w.bufs, name)
	}
	w.used = 0
}

// Capacity returns the scratchpad size.
func (w *WRAM) Capacity() int { return w.capacity }

// DPU bundles one bank's MRAM, WRAM and core, with a meter.
type DPU struct {
	Cfg   *Config
	MRAM  *MRAM
	WRAM  *WRAM
	Meter Meter
	// costOnly marks an accounting DPU (NewAccountingDPU): allocations are
	// segment-less and transfers are pure charges. Kernels consult it to
	// run their cost program instead of the data program.
	costOnly bool
}

// NewDPU builds a functional DPU under the config.
func NewDPU(cfg *Config) *DPU {
	return newDPU(cfg, false)
}

// NewAccountingDPU builds a cycles-only DPU: the same capacities, the same
// meter, the same charge arithmetic, but no backing bytes anywhere. It
// exists for cost-program execution, where timing and event counts — which
// are data-independent functions of the workload shape — are wanted without
// the byte-level functional simulation.
func NewAccountingDPU(cfg *Config) *DPU {
	return newDPU(cfg, true)
}

func newDPU(cfg *Config, costOnly bool) *DPU {
	return &DPU{
		Cfg:      cfg,
		MRAM:     newMRAM(cfg.MRAMBytes, costOnly),
		WRAM:     newWRAM(cfg.WRAMBytes, costOnly),
		costOnly: costOnly,
	}
}

// CostOnly reports whether this is an accounting (cycles-only) DPU.
func (d *DPU) CostOnly() bool { return d.costOnly }

// Exec charges n instructions of the class.
func (d *DPU) Exec(class EventClass, n int64) {
	if n <= 0 {
		return
	}
	d.Meter.add(class, n)
	switch class {
	case EvInstr, EvWRAMAccess:
		d.Meter.Cycles += n * d.Cfg.CyclesPerInstr
	case EvMul8:
		d.Meter.Cycles += n * d.Cfg.CyclesPerMul8
	case EvMul32:
		d.Meter.Cycles += n * d.Cfg.CyclesPerMul32
	default:
		panic(fmt.Sprintf("pim: Exec called with non-instruction class %v", class))
	}
}

// Note records n events of a class without charging cycles — used for
// counts whose cycle cost is already folded into instruction charges (e.g.
// WRAM data accesses) but which the energy model prices separately.
func (d *DPU) Note(class EventClass, n int64) {
	if n > 0 {
		d.Meter.add(class, n)
	}
}

// dmaCycles prices one DMA transfer of n bytes.
func (d *DPU) dmaCycles(n int64) int64 {
	return d.Cfg.DMASetupCycles + int64(float64(n)/d.Cfg.DMABytesPerCycle+0.999999)
}

// DMARead copies seg[off:off+len(dst)] into dst (an MRAM -> WRAM transfer)
// and charges the DMA engine.
func (d *DPU) DMARead(seg *Segment, off int64, dst []byte) error {
	if off < 0 || off+int64(len(dst)) > seg.Size {
		return fmt.Errorf("pim: DMARead %q: range [%d,%d) outside segment of %d bytes",
			seg.Name, off, off+int64(len(dst)), seg.Size)
	}
	if seg.Data == nil && len(dst) > 0 {
		return fmt.Errorf("pim: DMARead %q: segment is a size-only reservation (use ChargeDMARead)", seg.Name)
	}
	copy(dst, seg.Data[off:])
	n := int64(len(dst))
	d.Meter.add(EvDMARead, n)
	d.Meter.Cycles += d.dmaCycles(n)
	return nil
}

// DMAWrite copies src into seg[off:] (a WRAM -> MRAM transfer).
func (d *DPU) DMAWrite(seg *Segment, off int64, src []byte) error {
	if seg.ro {
		return fmt.Errorf("pim: DMAWrite %q: segment is a read-only mapping", seg.Name)
	}
	if off < 0 || off+int64(len(src)) > seg.Size {
		return fmt.Errorf("pim: DMAWrite %q: range [%d,%d) outside segment of %d bytes",
			seg.Name, off, off+int64(len(src)), seg.Size)
	}
	if seg.Data == nil && len(src) > 0 {
		return fmt.Errorf("pim: DMAWrite %q: segment is a size-only reservation (use ChargeDMAWrite)", seg.Name)
	}
	copy(seg.Data[off:], src)
	n := int64(len(src))
	d.Meter.add(EvDMAWrite, n)
	d.Meter.Cycles += d.dmaCycles(n)
	return nil
}

// ChargeDMARead charges one MRAM -> WRAM transfer of n bytes from the
// segment without moving data: exactly the cycles and event counts of a
// DMARead of the same size, with only the bounds check and the meter. It is
// the cost-program counterpart of DMARead.
func (d *DPU) ChargeDMARead(seg *Segment, off, n int64) error {
	if off < 0 || off+n > seg.Size {
		return fmt.Errorf("pim: DMARead %q: range [%d,%d) outside segment of %d bytes",
			seg.Name, off, off+n, seg.Size)
	}
	d.Meter.add(EvDMARead, n)
	d.Meter.Cycles += d.dmaCycles(n)
	return nil
}

// ChargeDMAReads charges count back-to-back transfers of n bytes each from
// the segment. It folds a loop of equal-sized DMAReads into one meter update:
// each transfer costs dmaCycles(n), so the aggregate is exact. It is meant
// for trains whose offsets are data-dependent (LUT entry and slice
// addresses): only the transfer size is checked against the segment,
// because without data an out-of-bounds offset that a functional run would
// report cannot be detected. Shape-derived trains should use
// ChargeDMAReadSeq, which keeps the bounds check.
func (d *DPU) ChargeDMAReads(seg *Segment, count, n int64) error {
	if count <= 0 {
		return nil
	}
	if n < 0 || n > seg.Size {
		return fmt.Errorf("pim: DMARead %q: %d-byte transfer outside segment of %d bytes",
			seg.Name, n, seg.Size)
	}
	d.Meter.add(EvDMARead, count*n)
	d.Meter.Cycles += count * d.dmaCycles(n)
	return nil
}

// ChargeDMAReadSeq charges count transfers of n bytes each at offsets off,
// off+stride, off+2*stride, ... — the cost-program counterpart of a strided
// DMARead loop with shape-derived addresses. Checking the first and last
// transfer bounds covers every intermediate one (offsets are monotone in
// the stride), so a layout bug a functional run would report fails here
// identically.
func (d *DPU) ChargeDMAReadSeq(seg *Segment, off, stride, count, n int64) error {
	if count <= 0 {
		return nil
	}
	last := off + (count-1)*stride
	lo, hi := off, last
	if stride < 0 {
		lo, hi = last, off
	}
	if lo < 0 || hi+n > seg.Size {
		return fmt.Errorf("pim: DMARead %q: strided train [%d..%d)+%d outside segment of %d bytes",
			seg.Name, lo, hi, n, seg.Size)
	}
	d.Meter.add(EvDMARead, count*n)
	d.Meter.Cycles += count * d.dmaCycles(n)
	return nil
}

// ChargeDMAWrite charges one WRAM -> MRAM transfer of n bytes without moving
// data — the cost-program counterpart of DMAWrite, including its read-only
// refusal.
func (d *DPU) ChargeDMAWrite(seg *Segment, off, n int64) error {
	if seg.ro {
		return fmt.Errorf("pim: DMAWrite %q: segment is a read-only mapping", seg.Name)
	}
	if off < 0 || off+n > seg.Size {
		return fmt.Errorf("pim: DMAWrite %q: range [%d,%d) outside segment of %d bytes",
			seg.Name, off, off+n, seg.Size)
	}
	d.Meter.add(EvDMAWrite, n)
	d.Meter.Cycles += d.dmaCycles(n)
	return nil
}

// Seconds returns this DPU's elapsed simulated time.
func (d *DPU) Seconds() float64 { return d.Cfg.Seconds(d.Meter.Cycles) }

// Reset clears meter, WRAM and MRAM allocations for kernel reuse,
// preserving the DPU's mode. The memories are recycled, not reallocated:
// retired segment and buffer backing arrays are reused (zeroed) by the next
// same-named allocation, so a DPU that reruns kernels of one shape settles
// into an allocation-free steady state.
func (d *DPU) Reset() {
	d.Meter.Reset()
	d.WRAM.FreeAll()
	d.MRAM.Reset()
}
