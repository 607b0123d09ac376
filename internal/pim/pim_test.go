package pim

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumDPUs() != 2048 {
		t.Errorf("NumDPUs = %d, want 2048 (32 ranks x 64 banks)", cfg.NumDPUs())
	}
	// "Approximately half" of each capacity goes to LUTs (§V-A).
	if b := cfg.MRAMLUTBudget(); b < 32<<20 || b > 38<<20 {
		t.Errorf("MRAM LUT budget = %d, want ~half of 64 MiB", b)
	}
	if b := cfg.WRAMLUTBudget(); b < 32<<10 || b > 38<<10 {
		t.Errorf("WRAM LUT budget = %d, want ~half of 64 KiB", b)
	}
}

// TestConfigValidation requires every bad field, NaN and +Inf included, to be
// an error that names the field.
func TestConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		mod   func(*Config)
	}{
		{"Ranks", func(c *Config) { c.Ranks = 0 }},
		{"BanksPerRank", func(c *Config) { c.BanksPerRank = -1 }},
		{"MRAMBytes", func(c *Config) { c.MRAMBytes = 0 }},
		{"WRAMBytes", func(c *Config) { c.WRAMBytes = 0 }},
		{"ClockHz", func(c *Config) { c.ClockHz = -1 }},
		{"ClockHz", func(c *Config) { c.ClockHz = nan }},
		{"ClockHz", func(c *Config) { c.ClockHz = inf }},
		{"DMABytesPerCycle", func(c *Config) { c.DMABytesPerCycle = 0 }},
		{"DMABytesPerCycle", func(c *Config) { c.DMABytesPerCycle = nan }},
		{"DMABytesPerCycle", func(c *Config) { c.DMABytesPerCycle = inf }},
		{"LUTBudgetFrac", func(c *Config) { c.LUTBudgetFrac = 0 }},
		{"LUTBudgetFrac", func(c *Config) { c.LUTBudgetFrac = 1.5 }},
		{"LUTBudgetFrac", func(c *Config) { c.LUTBudgetFrac = nan }},
		{"LUTBudgetFrac", func(c *Config) { c.LUTBudgetFrac = inf }},
		{"HostToPIMBW", func(c *Config) { c.HostToPIMBW = 0 }},
		{"HostToPIMBW", func(c *Config) { c.HostToPIMBW = nan }},
		{"PIMToHostBW", func(c *Config) { c.PIMToHostBW = inf }},
		{"HostBroadcastBW", func(c *Config) { c.HostBroadcastBW = math.Inf(-1) }},
	} {
		cfg := DefaultConfig()
		tc.mod(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted: %+v", tc.field, cfg)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
}

func TestLDCalibration(t *testing.T) {
	// §VI-I: streaming LUT slices costs L_D = 1.36e-9 s per byte
	// (~735 MB/s, the measured UPMEM MRAM->WRAM DMA bandwidth). The
	// amortized per-byte time over a large transfer must land within 10%.
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	seg, err := d.MRAM.Alloc("lut", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 16384
	buf := make([]byte, bytes)
	if err := d.DMARead(seg, 0, buf); err != nil {
		t.Fatal(err)
	}
	perByte := d.Seconds() / bytes
	if perByte < 1.36e-9*0.9 || perByte > 1.36e-9*1.1 {
		t.Errorf("amortized per-byte DMA time = %.3g s, want ~1.36e-9", perByte)
	}
}

func TestLLocalCalibration(t *testing.T) {
	// §VI-I: one reordering lookup + canonical lookup + accumulation is 12
	// instructions, L_local = 3.27e-8 s (~11.45 cycles at 350 MHz). Charging
	// 12 EvInstr must land within 10% of L_local.
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	d.Exec(EvInstr, 12)
	got := d.Seconds()
	if got < 3.27e-8*0.9 || got > 3.27e-8*1.1 {
		t.Errorf("12-instruction time = %.3g s, want ~3.27e-8", got)
	}
}

func TestMRAMAllocator(t *testing.T) {
	m := newMRAM(1000, false)
	a, err := m.Alloc("a", 600)
	if err != nil {
		t.Fatal(err)
	}
	if a.Off != 0 || len(a.Data) != 600 {
		t.Errorf("segment a: off=%d len=%d", a.Off, len(a.Data))
	}
	if _, err := m.Alloc("a", 10); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := m.Alloc("b", 500); err == nil {
		t.Error("over-capacity alloc accepted")
	} else if !strings.Contains(err.Error(), "free") {
		t.Errorf("unhelpful error: %v", err)
	}
	b, err := m.Alloc("b", 400)
	if err != nil {
		t.Fatal(err)
	}
	if b.Off != 600 {
		t.Errorf("segment b off = %d", b.Off)
	}
	if m.used != 1000 {
		t.Errorf("used = %d", m.used)
	}
	if _, err := m.Alloc("zero", 0); err == nil {
		t.Error("zero-size alloc accepted")
	}
}

func TestWRAMAllocator(t *testing.T) {
	w := newWRAM(100, false)
	if _, err := w.Alloc("x", 80); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc("y", 30); err == nil {
		t.Error("over-capacity WRAM alloc accepted")
	}
	if _, err := w.Alloc("y", 20); err != nil {
		t.Fatal("valid alloc failed")
	}
	if w.used != 100 || w.Capacity() != 100 {
		t.Errorf("used=%d cap=%d", w.used, w.Capacity())
	}
	w.FreeAll()
	if w.used != 0 {
		t.Error("FreeAll left bytes allocated")
	}
}

func TestDMAMovesBytesAndCharges(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	seg, err := d.MRAM.Alloc("data", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.Data {
		seg.Data[i] = byte(i)
	}
	dst := make([]byte, 64)
	if err := d.DMARead(seg, 16, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != byte(i+16) {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	if d.Meter.Count(EvDMARead) != 64 {
		t.Errorf("DMA read bytes = %d", d.Meter.Count(EvDMARead))
	}
	wantCycles := cfg.DMASetupCycles + int64(math.Ceil(64/cfg.DMABytesPerCycle))
	if d.Meter.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", d.Meter.Cycles, wantCycles)
	}

	// Write back modified data.
	dst[0] = 0xAA
	if err := d.DMAWrite(seg, 16, dst); err != nil {
		t.Fatal(err)
	}
	if seg.Data[16] != 0xAA {
		t.Error("DMAWrite did not store")
	}
	if d.Meter.Count(EvDMAWrite) != 64 {
		t.Errorf("DMA write bytes = %d", d.Meter.Count(EvDMAWrite))
	}
}

func TestDMABoundsChecked(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	seg, _ := d.MRAM.Alloc("data", 64)
	if err := d.DMARead(seg, 60, make([]byte, 8)); err == nil {
		t.Error("out-of-range DMARead accepted")
	}
	if err := d.DMAWrite(seg, -1, make([]byte, 4)); err == nil {
		t.Error("negative-offset DMAWrite accepted")
	}
}

func TestExecCharges(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	d.Exec(EvInstr, 10)
	d.Exec(EvMul8, 5)
	d.Exec(EvMul32, 2)
	want := 10*cfg.CyclesPerInstr + 5*cfg.CyclesPerMul8 + 2*cfg.CyclesPerMul32
	if d.Meter.Cycles != want {
		t.Errorf("cycles = %d, want %d", d.Meter.Cycles, want)
	}
	d.Exec(EvInstr, 0)
	d.Exec(EvInstr, -5)
	if d.Meter.Cycles != want {
		t.Error("non-positive charge changed the meter")
	}
}

func TestExecRejectsNonInstr(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	defer func() {
		if recover() == nil {
			t.Error("Exec(EvDMARead) did not panic")
		}
	}()
	d.Exec(EvDMARead, 1)
}

func TestMeterMerge(t *testing.T) {
	var a, b Meter
	a.Cycles = 100
	a.Counts[EvInstr] = 10
	b.Cycles = 250
	b.Counts[EvInstr] = 20
	b.Counts[EvDMARead] = 64
	a.Merge(&b)
	// Wall-clock of parallel banks is the max; event counts add.
	if a.Cycles != 250 {
		t.Errorf("merged cycles = %d, want max 250", a.Cycles)
	}
	if a.Counts[EvInstr] != 30 || a.Counts[EvDMARead] != 64 {
		t.Errorf("merged counts = %v", a.Counts)
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = -1
	if err := cfg.Validate(); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDPUReset(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	d.MRAM.Alloc("x", 100)
	d.WRAM.Alloc("y", 100)
	d.Exec(EvInstr, 5)
	d.Reset()
	if d.Meter.Cycles != 0 || d.MRAM.used != 0 || d.WRAM.used != 0 {
		t.Error("Reset left state behind")
	}
}

func TestEventClassString(t *testing.T) {
	if EvInstr.String() != "instr" || EvDMARead.String() != "dma_read_bytes" {
		t.Error("event names")
	}
	if !strings.Contains(EventClass(99).String(), "99") {
		t.Error("unknown event name")
	}
}

// TestResetRecyclesSegments pins the pooling contract of DPU.Reset: a
// same-named re-allocation after Reset reuses the retired backing array,
// returns it zeroed (exactly like a fresh make), and a re-allocation at a
// larger size falls back to a fresh array.
func TestResetRecyclesSegments(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)

	seg, err := d.MRAM.Alloc("W", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.Data {
		seg.Data[i] = 0xAB
	}
	first := &seg.Data[0]
	buf, err := d.WRAM.Alloc("scratch", 32)
	if err != nil {
		t.Fatal(err)
	}
	buf.Data[0] = 0xCD

	d.Reset()

	seg2, err := d.MRAM.Alloc("W", 64)
	if err != nil {
		t.Fatal(err)
	}
	if &seg2.Data[0] != first {
		t.Error("MRAM re-alloc did not reuse the retired backing array")
	}
	for i, b := range seg2.Data {
		if b != 0 {
			t.Fatalf("recycled segment not zeroed at byte %d: %#x", i, b)
		}
	}
	buf2, err := d.WRAM.Alloc("scratch", 32)
	if err != nil {
		t.Fatal(err)
	}
	if buf2.Data[0] != 0 {
		t.Error("recycled WRAM buffer not zeroed")
	}

	d.Reset()
	seg3, err := d.MRAM.Alloc("W", 128) // grows past the retired capacity
	if err != nil {
		t.Fatal(err)
	}
	if len(seg3.Data) != 128 {
		t.Fatalf("grown segment has %d bytes, want 128", len(seg3.Data))
	}
}

// TestResetNeverRecyclesMappedBytes guards the shared-LUT safety property:
// bytes mapped read-only over host memory must not enter the recycle pool,
// or a later owned allocation could scribble over a process-wide table.
func TestResetNeverRecyclesMappedBytes(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDPU(&cfg)
	shared := []byte{1, 2, 3, 4}
	if _, err := d.MRAM.Map("LUT", shared); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	seg, err := d.MRAM.Alloc("LUT", 4)
	if err != nil {
		t.Fatal(err)
	}
	if &seg.Data[0] == &shared[0] {
		t.Fatal("owned allocation aliases previously mapped shared bytes")
	}
	seg.Data[0] = 99
	if shared[0] != 1 {
		t.Fatal("write through recycled segment corrupted the shared table")
	}
}

// TestAccountingDPUResetReuse checks cost-only memories recycle their
// segment records without ever growing Data.
func TestAccountingDPUResetReuse(t *testing.T) {
	cfg := DefaultConfig()
	d := NewAccountingDPU(&cfg)
	for i := 0; i < 3; i++ {
		if _, err := d.MRAM.Reserve("T", 100); err != nil {
			t.Fatal(err)
		}
		seg, err := d.MRAM.Alloc("W", 50)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Data != nil {
			t.Fatal("accounting segment grew data")
		}
		d.Reset()
	}
}
