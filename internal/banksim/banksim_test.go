package banksim

import (
	"math"
	"strings"
	"testing"
)

// TestTimingValidation requires every bad field, a NaN or +Inf TCK included,
// to be an error that names the field, from Validate and from both units'
// RunGEMM (a +Inf TCK used to report Seconds: +Inf with a nil error).
func TestTimingValidation(t *testing.T) {
	for _, tc := range []struct {
		field string
		mod   func(*Timing)
	}{
		{"TCK", func(t *Timing) { t.TCK = 0 }},
		{"TCK", func(t *Timing) { t.TCK = math.NaN() }},
		{"TCK", func(t *Timing) { t.TCK = math.Inf(1) }},
		{"TCK", func(t *Timing) { t.TCK = math.Inf(-1) }},
		{"TRCD", func(t *Timing) { t.TRCD = 0 }},
		{"TCL", func(t *Timing) { t.TCL = -1 }},
		{"TRP", func(t *Timing) { t.TRP = 0 }},
		{"TCCD", func(t *Timing) { t.TCCD = 0 }},
		{"RowBytes", func(t *Timing) { t.RowBytes = 0 }},
		{"BurstBytes", func(t *Timing) { t.BurstBytes = -32 }},
		{"RowBytes", func(t *Timing) { t.RowBytes = 33 }}, // not a burst multiple
	} {
		tm := HBM2()
		tc.mod(&tm)
		u, err := NewLUTPIM(tm, 4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.ConfigureSlices(32, 16); err != nil {
			t.Fatal(err)
		}
		_, simdErr := NewSIMDPIM(tm).RunGEMM(GEMMSpec{M: 8, K: 64, N: 2})
		_, lutErr := u.RunGEMM(GEMMSpec{M: 8, K: 64, N: 2})
		for _, err := range []error{tm.Validate(), simdErr, lutErr} {
			if err == nil {
				t.Errorf("%s: timing %+v accepted", tc.field, tm)
			} else if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s: error %q does not name the field", tc.field, err)
			}
		}
	}
}

func TestBankRowBuffer(t *testing.T) {
	tm := HBM2()
	b := NewBank(tm)
	// First access: ACT + RD on a precharged bank.
	b.Read(0, 32)
	if b.Cycles != tm.TRCD+tm.TCL {
		t.Errorf("first access cycles %d", b.Cycles)
	}
	if b.Activates != 1 || b.RowHits != 0 {
		t.Errorf("act=%d hits=%d", b.Activates, b.RowHits)
	}
	// Same-row access: row hit at tCCD.
	c0 := b.Cycles
	b.Read(64, 32)
	if b.Cycles-c0 != tm.TCCD {
		t.Errorf("row hit cycles %d", b.Cycles-c0)
	}
	// Different-row access: PRE + ACT + RD.
	c0 = b.Cycles
	b.Read(tm.RowBytes*5, 32)
	if b.Cycles-c0 != tm.TRP+tm.TRCD+tm.TCL {
		t.Errorf("row miss cycles %d", b.Cycles-c0)
	}
}

func TestReadBurstCount(t *testing.T) {
	b := NewBank(HBM2())
	b.Read(0, 1024) // one full row: 32 bursts
	if b.Reads != 32 {
		t.Errorf("reads = %d, want 32", b.Reads)
	}
	if b.Activates != 1 {
		t.Errorf("activates = %d, want 1 (sequential stream)", b.Activates)
	}
}

func TestSIMDPIMGemm(t *testing.T) {
	s := NewSIMDPIM(HBM2())
	res, err := s.RunGEMM(GEMMSpec{M: 64, K: 128, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.MACs != 64*128*8 {
		t.Errorf("MACs = %d", res.MACs)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 {
		t.Errorf("cycles %d seconds %g", res.Cycles, res.Seconds)
	}
	// Weight streaming dominates: roughly M*N*K*2/32 read bursts.
	wantReads := int64(64*8) * 128 * 2 / 32
	if res.Reads < wantReads {
		t.Errorf("reads = %d, want >= %d", res.Reads, wantReads)
	}
}

func TestLUTPIMBeatsSIMDAtLowBits(t *testing.T) {
	tm := HBM2()
	g := GEMMSpec{M: 256, K: 256, N: 4}
	s := NewSIMDPIM(tm)
	simd, err := s.RunGEMM(g)
	if err != nil {
		t.Fatal(err)
	}
	// W1A3-class config: p=8, 1-byte packed vectors, 1-byte entries,
	// 256-entry slices.
	u, err := NewLUTPIM(tm, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ConfigureSlices(256, 256); err != nil {
		t.Fatal(err)
	}
	lut, err := u.RunGEMM(g)
	if err != nil {
		t.Fatal(err)
	}
	if lut.MACs != simd.MACs {
		t.Fatalf("MAC counts differ: %d vs %d", lut.MACs, simd.MACs)
	}
	speedup := float64(simd.Cycles) / float64(lut.Cycles)
	if speedup < 1.5 {
		t.Errorf("W1-class LUT-PIM speedup %.2f, want > 1.5", speedup)
	}
}

func TestLUTPIMW4A4SmallGain(t *testing.T) {
	tm := HBM2()
	// Fig. 20-representative per-bank share: slice loads must amortize
	// over a realistic M before the W4A4 ratio is meaningful.
	g := GEMMSpec{M: 1024, K: 1024, N: 16}
	simd, err := NewSIMDPIM(tm).RunGEMM(g)
	if err != nil {
		t.Fatal(err)
	}
	// W4A4-class: p=2, 1-byte vectors, 1-byte entries, 256-entry slices.
	u, err := NewLUTPIM(tm, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ConfigureSlices(256, 256); err != nil {
		t.Fatal(err)
	}
	lut, err := u.RunGEMM(g)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(simd.Cycles) / float64(lut.Cycles)
	if speedup < 0.8 || speedup > 2.0 {
		t.Errorf("W4A4-class speedup %.2f, want modest (paper: 1.17)", speedup)
	}
}

func TestLUTPIMValidation(t *testing.T) {
	tm := HBM2()
	if _, err := NewLUTPIM(tm, 0, 1, 1); err == nil {
		t.Error("accepted p=0")
	}
	u, err := NewLUTPIM(tm, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ConfigureSlices(1024, 256); err == nil {
		t.Error("accepted slice larger than unit SRAM")
	}
	if _, err := u.RunGEMM(GEMMSpec{M: 8, K: 8, N: 1}); err == nil {
		t.Error("ran without configured slices")
	}
	if err := u.ConfigureSlices(256, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := u.RunGEMM(GEMMSpec{M: 0, K: 8, N: 1}); err == nil {
		t.Error("accepted M=0")
	}
}

func TestSlicesScatterCausesActivates(t *testing.T) {
	tm := HBM2()
	u, err := NewLUTPIM(tm, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ConfigureSlices(256, 256); err != nil {
		t.Fatal(err)
	}
	res, err := u.RunGEMM(GEMMSpec{M: 64, K: 256, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every slice load lands on a pseudo-random LUT row: expect at least
	// one activate per group slice.
	groups := int64(256 / 8)
	if res.Activates < groups*4 {
		t.Errorf("activates = %d, want >= %d (scattered slices)", res.Activates, groups*4)
	}
}
