package kernels

import (
	"reflect"
	"testing"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// TestKernelDeterminism: identical tiles must produce identical cycle
// counts — the property that lets the orchestrator price every bank of a
// tile class from one record.
func TestKernelDeterminism(t *testing.T) {
	tile := randTile(t, 48, 64, 4, quant.W1A3, 77)
	for _, kn := range allKernels(t, quant.W1A3) {
		d1, d2 := freshDPU(t), freshDPU(t)
		r1, err := kn.Run(d1, tile)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := kn.Run(d2, tile)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles {
			t.Errorf("%s: cycles differ across identical runs: %d vs %d",
				kn.Name(), r1.Cycles, r2.Cycles)
		}
		if r1.Breakdown != r2.Breakdown {
			t.Errorf("%s: breakdowns differ", kn.Name())
		}
	}
}

// TestKernelCyclesValueIndependent: cycle counts must not depend on the
// tile's data values (only its shape), or pricing a tile class by one
// record would be wrong for its other banks.
func TestKernelCyclesValueIndependent(t *testing.T) {
	a := randTile(t, 32, 40, 4, quant.W2A2, 1)
	b := randTile(t, 32, 40, 4, quant.W2A2, 999)
	for _, kn := range allKernels(t, quant.W2A2) {
		d1, d2 := freshDPU(t), freshDPU(t)
		r1, err := kn.Run(d1, a)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := kn.Run(d2, b)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles {
			t.Errorf("%s: cycles depend on data values: %d vs %d",
				kn.Name(), r1.Cycles, r2.Cycles)
		}
	}
}

// TestKSmallerThanP: a K below the packing degree runs as one padded group.
func TestKSmallerThanP(t *testing.T) {
	f := quant.W1A3
	tile := randTile(t, 9, 3, 5, f, 5)
	want := RefGEMM(tile)
	spec := lut.MustSpec(f, 8)
	for _, kn := range []Kernel{
		NewOPLCRCKernel(DefaultCosts(), lut.MustSpec(f, 5)),
		NewStreamKernel(DefaultCosts(), spec, 4),
	} {
		d := freshDPU(t)
		if _, err := kn.Run(d, tile); err != nil {
			t.Fatalf("%s: %v", kn.Name(), err)
		}
		if !reflect.DeepEqual(tile.O, want) {
			t.Errorf("%s: wrong output for K < p", kn.Name())
		}
	}
}

// TestNonPresetFormats: the kernels must handle any valid WxAy pairing,
// not just the paper's four.
func TestNonPresetFormats(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {2, 4}, {1, 2}, {4, 2}} {
		f, err := quant.NewFormat(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		tile := randTile(t, 12, 24, 3, f, 31)
		want := RefGEMM(tile)
		for _, kn := range allKernels(t, f) {
			d := freshDPU(t)
			if _, err := kn.Run(d, tile); err != nil {
				t.Fatalf("%s %s: %v", f.Name(), kn.Name(), err)
			}
			if !reflect.DeepEqual(tile.O, want) {
				t.Errorf("%s %s: mismatch", f.Name(), kn.Name())
			}
		}
	}
}

// TestOPDRAMKernelBitExact covers the Fig. 3(a) design point.
func TestOPDRAMKernelBitExact(t *testing.T) {
	f := quant.W1A3
	tile := randTile(t, 16, 24, 3, f, 3)
	want := RefGEMM(tile)
	for p := 1; p <= 5; p++ {
		d := freshDPU(t)
		kn := NewOPDRAMKernel(DefaultCosts(), lut.MustSpec(f, p))
		res, err := kn.Run(d, tile)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(tile.O, want) {
			t.Errorf("p=%d: mismatch", p)
		}
		if res.Breakdown.LUTLoad == 0 {
			t.Errorf("p=%d: no per-lookup DMA charged", p)
		}
	}
	// Oversized spec must be rejected (OP LUT beyond the bank budget).
	d := freshDPU(t)
	if _, err := NewOPDRAMKernel(DefaultCosts(), lut.MustSpec(quant.W4A4, 4)).Run(d, tile); err == nil {
		t.Error("accepted an over-budget DRAM LUT")
	}
}

// TestOPDRAMSlowerThanBuffer is the Fig. 3(c) conclusion as an invariant.
func TestOPDRAMSlowerThanBuffer(t *testing.T) {
	f := quant.W1A3
	tile := randTile(t, 64, 96, 4, f, 13)
	spec := lut.MustSpec(f, 3) // fits both residences
	d1, d2 := freshDPU(t), freshDPU(t)
	dram, err := NewOPDRAMKernel(DefaultCosts(), spec).Run(d1, tile)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := NewOPKernel(DefaultCosts(), spec).Run(d2, tile)
	if err != nil {
		t.Fatal(err)
	}
	if dram.Cycles <= buf.Cycles {
		t.Errorf("DRAM-resident LUT (%d cycles) should lose to buffer-resident (%d)",
			dram.Cycles, buf.Cycles)
	}
}

// TestMRAMExhaustion: a tile too large for the bank must fail cleanly.
func TestMRAMExhaustion(t *testing.T) {
	cfg := freshDPU(t).Cfg
	small := *cfg
	small.MRAMBytes = 1 << 16 // 64 KB bank
	d := newDPUWith(&small)
	tile := randTile(t, 256, 512, 16, quant.W1A3, 2) // W alone is 128 KB
	if _, err := NewNaiveKernel(DefaultCosts()).Run(d, tile); err == nil {
		t.Error("naive kernel accepted a tile larger than the bank")
	}
}

// TestWRAMExhaustion: a tile M beyond the WRAM accumulator must fail.
func TestWRAMExhaustion(t *testing.T) {
	tile := randTile(t, 20000, 8, 1, quant.W1A3, 2)
	d := freshDPU(t)
	if _, err := NewStreamKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 8), 2).Run(d, tile); err == nil {
		t.Error("stream kernel accepted M=20000 (80 KB accumulator)")
	}
}

func newDPUWith(cfg *pim.Config) *pim.DPU { return pim.NewDPU(cfg) }
