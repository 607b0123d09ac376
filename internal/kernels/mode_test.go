package kernels

import (
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// modeKernels enumerates every kernel implementation (the six designs plus
// the Fig. 3(a) DRAM-resident OP candidate) at representative design points:
// for W4A4, at the smaller packing degrees its 8-bit LUT rows leave room for.
func modeKernels(t *testing.T, f quant.Format) []Kernel {
	t.Helper()
	c := DefaultCosts()
	if f == quant.W4A4 {
		return []Kernel{
			NewNaiveKernel(c),
			NewLTCKernel(c),
			NewOPKernel(c, lut.MustSpec(f, 1)),
			NewOPDRAMKernel(c, lut.MustSpec(f, 2)),
			NewOPLCKernel(c, lut.MustSpec(f, 2)),
			NewOPLCRCKernel(c, lut.MustSpec(f, 1)),
			NewStreamKernel(c, lut.MustSpec(f, 3), 1),
		}
	}
	return []Kernel{
		NewNaiveKernel(c),
		NewLTCKernel(c),
		NewOPKernel(c, lut.MustSpec(f, 2)),
		NewOPDRAMKernel(c, lut.MustSpec(f, 4)),
		NewOPLCKernel(c, lut.MustSpec(f, 4)),
		NewOPLCRCKernel(c, lut.MustSpec(f, 4)),
		NewStreamKernel(c, lut.MustSpec(f, 6), 2),
	}
}

// TestCyclesOnlyMatchesFunctional pins the tentpole guarantee at kernel
// granularity: the cost program charges bit-identical cycles, event counts
// and phase breakdowns to the functional data program, for every kernel,
// across shapes including ragged group/chunk edges. The column counts also
// cover the cost program's column fold (foldColumns): two columns bypass it,
// three fold one copy, and 33 fold 31 copies of a column with a ragged chunk
// and a ragged group.
func TestCyclesOnlyMatchesFunctional(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{16, 24, 8},
		{300, 64, 5}, // crosses the wChunk=256 boundary with a ragged tail
		{64, 250, 3}, // K not a multiple of any tested p
		{1, 7, 1},    // degenerate tile
		{40, 24, 2},
		{300, 250, 33},
	}
	for _, f := range []quant.Format{quant.W1A3, quant.W2A2, quant.W4A4} {
		for _, kn := range modeKernels(t, f) {
			for _, sh := range shapes {
				pair := workload.NewGEMMPair(sh.m, sh.k, sh.n, f, 7)
				tile, err := NewTile(sh.m, sh.k, sh.n, f, pair.W.Codes, pair.A.Codes)
				if err != nil {
					t.Fatal(err)
				}
				cfg := pim.DefaultConfig()
				fd := pim.NewDPU(&cfg)
				fres, err := kn.Run(fd, tile)
				if err != nil {
					t.Fatalf("%s %s %dx%dx%d functional: %v", kn.Name(), f.Name(), sh.m, sh.k, sh.n, err)
				}

				shapeTile, err := NewShapeTile(sh.m, sh.k, sh.n, f)
				if err != nil {
					t.Fatal(err)
				}
				cd := pim.NewAccountingDPU(&cfg)
				cres, err := kn.Run(cd, shapeTile)
				if err != nil {
					t.Fatalf("%s %s %dx%dx%d cycles-only: %v", kn.Name(), f.Name(), sh.m, sh.k, sh.n, err)
				}

				tag := kn.Name() + " " + f.Name()
				if fres.Cycles != cres.Cycles {
					t.Errorf("%s %dx%dx%d: cycles %d (functional) != %d (cycles-only)",
						tag, sh.m, sh.k, sh.n, fres.Cycles, cres.Cycles)
				}
				if fd.Meter != cd.Meter {
					t.Errorf("%s %dx%dx%d: meters diverge\n functional  %+v\n cycles-only %+v",
						tag, sh.m, sh.k, sh.n, fd.Meter, cd.Meter)
				}
				if fres.Breakdown != cres.Breakdown {
					t.Errorf("%s %dx%dx%d: breakdowns diverge\n functional  %+v\n cycles-only %+v",
						tag, sh.m, sh.k, sh.n, fres.Breakdown, cres.Breakdown)
				}
				if fres.Seconds != cres.Seconds {
					t.Errorf("%s %dx%dx%d: seconds %g != %g", tag, sh.m, sh.k, sh.n, fres.Seconds, cres.Seconds)
				}
			}
		}
	}
}

// TestCyclesOnlyLeavesOutputUntouched checks that the cost program computes
// nothing: a shape tile has no output and the accounting DPU no bytes.
func TestCyclesOnlyLeavesOutputUntouched(t *testing.T) {
	f := quant.W1A3
	kn := NewOPKernel(DefaultCosts(), lut.MustSpec(f, 2))
	tile, err := NewShapeTile(8, 16, 4, f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pim.DefaultConfig()
	d := pim.NewAccountingDPU(&cfg)
	if _, err := kn.Run(d, tile); err != nil {
		t.Fatal(err)
	}
	if tile.O != nil || tile.W != nil || tile.A != nil {
		t.Fatalf("shape tile gained data: O=%v W=%v A=%v", tile.O != nil, tile.W != nil, tile.A != nil)
	}
}

// TestAccountingDPUCapacityParity checks that capacity exhaustion fails
// identically in both modes — the WRAM and MRAM bounds are part of the cost
// model — for every packed-LUT design, and that the error names the design.
func TestAccountingDPUCapacityParity(t *testing.T) {
	c := DefaultCosts()
	cases := []*LUTKernel{
		NewOPKernel(c, lut.MustSpec(quant.W1A3, 4)),          // 64 KB LUT over the WRAM budget
		NewOPDRAMKernel(c, lut.MustSpec(quant.W4A4, 4)),      // 2^32-entry LUT over the MRAM budget
		NewOPLCKernel(c, lut.MustSpec(quant.W1A3, 6)),        // 110 KB canonical LUT over WRAM
		NewOPLCRCKernel(c, lut.MustSpec(quant.W4A4, 4)),      // combined LUTs over WRAM
		NewStreamKernel(c, lut.MustSpec(quant.W4A4, 4), 1),   // combined LUTs over MRAM
		NewStreamKernel(c, lut.MustSpec(quant.W1A3, 8), 100), // 100 slice pairs over WRAM
	}
	cfg := pim.DefaultConfig()
	for _, kn := range cases {
		f := kn.Spec.Fmt
		pair := workload.NewGEMMPair(8, 16, 4, f, 7)
		tile, _ := NewTile(8, 16, 4, f, pair.W.Codes, pair.A.Codes)
		_, ferr := kn.Run(pim.NewDPU(&cfg), tile)
		shapeTile, _ := NewShapeTile(8, 16, 4, f)
		_, cerr := kn.Run(pim.NewAccountingDPU(&cfg), shapeTile)
		if ferr == nil || cerr == nil {
			t.Fatalf("%s: accepted an over-budget design: functional=%v cycles-only=%v", kn.Name(), ferr, cerr)
		}
		if ferr.Error() != cerr.Error() {
			t.Fatalf("%s: mode error text divergence:\n functional  %v\n cycles-only %v", kn.Name(), ferr, cerr)
		}
		if want := "kernels: " + kn.Name() + ": "; !strings.HasPrefix(ferr.Error(), want) {
			t.Errorf("error %q does not start with %q", ferr, want)
		}
	}
}
