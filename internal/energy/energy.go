// Package energy prices the event counts the PIM simulator accumulates into
// joules, for the Fig. 14 / Fig. 17(b) energy comparisons.
//
// The per-event constants follow published DRAM-PIM characterizations
// (UPMEM measurements in Gómez-Luna et al., IGSC'21; DRAM access energies
// from CACTI-class models): an in-order DPU instruction costs tens of pJ,
// DRAM bank row access amortizes to a few pJ/bit, SRAM (WRAM) access is an
// order of magnitude cheaper, and host DDR4 transfers also amortize to
// pJ/bit plus the host package overhead. Absolute joules are not the
// reproduction target — the paper's own energy figures are measured on a
// different wall — but the *ratios* between kernels follow from the event
// mix, which these constants price consistently.
package energy

import "github.com/ais-snu/localut/internal/pim"

// Model holds per-event energies in joules.
type Model struct {
	// InstrJ is the energy of one DPU instruction (pipeline + register
	// file + control of a 350 MHz in-order core on a DRAM process).
	InstrJ float64
	// Mul8J is the extra energy of the 8-bit multiplier datapath.
	Mul8J float64
	// DMAByteJ is the per-byte MRAM <-> WRAM DMA energy (row activation
	// amortized over bursts).
	DMAByteJ float64
	// WRAMAccessJ is a 4-byte-class SRAM scratchpad access.
	WRAMAccessJ float64
	// HostLinkByteJ is the per-byte host <-> PIM DDR4 channel energy
	// including PHY and host memory-controller share.
	HostLinkByteJ float64
	// HostOpJ is the per-scalar-op host CPU energy (quantize/sort/pack,
	// softmax and friends), amortized Xeon-class core energy.
	HostOpJ float64
	// StaticW is the static power of the active PIM ranks plus host,
	// charged over the execution's wall time.
	StaticW float64
}

// Default returns the calibrated constants.
func Default() Model {
	return Model{
		InstrJ:        55e-12,
		Mul8J:         25e-12,
		DMAByteJ:      40e-12,
		WRAMAccessJ:   8e-12,
		HostLinkByteJ: 60e-12,
		HostOpJ:       150e-12,
		StaticW:       90,
	}
}

// Report itemizes the energy of one execution.
type Report struct {
	DynamicJ map[string]float64
	StaticJ  float64
	TotalJ   float64
}

// Price converts an aggregated meter (event counts across all active banks),
// host scalar-op count and wall-clock seconds into joules. The total is
// summed in a fixed component order: float addition is not associative, so
// ranging over the map would make TotalJ depend on Go's randomized map
// iteration and identical executions could differ in the last ulp.
func (m Model) Price(meter *pim.Meter, hostOps int64, wallSeconds float64) *Report {
	components := []struct {
		name string
		j    float64
	}{
		{"dpu_instr", float64(meter.Count(pim.EvInstr)) * m.InstrJ},
		{"dpu_mul", float64(meter.Count(pim.EvMul8))*(m.InstrJ+m.Mul8J) + float64(meter.Count(pim.EvMul32))*(m.InstrJ+m.Mul8J)*4},
		{"dma", float64(meter.Count(pim.EvDMARead)+meter.Count(pim.EvDMAWrite)) * m.DMAByteJ},
		{"wram", float64(meter.Count(pim.EvWRAMAccess)) * m.WRAMAccessJ},
		{"host_link", float64(meter.Count(pim.EvHostToPIM)+meter.Count(pim.EvPIMToHost)) * m.HostLinkByteJ},
		{"host_cpu", float64(hostOps) * m.HostOpJ},
	}
	r := &Report{DynamicJ: make(map[string]float64, len(components)), StaticJ: m.StaticW * wallSeconds}
	r.TotalJ = r.StaticJ
	for _, c := range components {
		r.DynamicJ[c.name] = c.j
		r.TotalJ += c.j
	}
	return r
}
