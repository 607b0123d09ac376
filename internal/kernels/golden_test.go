package kernels

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestLUTKernelsGolden pins every packed-LUT design point — OP, OP(DRAM),
// OP+LC, OP+LC+RC and LoCaLUT at k = 1, 2, 3 — for every paper format at
// every packing degree lut.NewSpec accepts, on shapes with a ragged weight
// chunk (M = 300), a ragged group (K = 250), every column-fold regime
// (N = 1, 2, 3, 33) and a degenerate 1x7x1 tile. Each line records whether
// each mode errs, the cycles-only Result and meter, and whether the
// functional run verified against RefGEMM with an identical result and
// meter. TestCyclesOnlyMatchesFunctional compares the two programs of the
// current code with each other; this compares both with a rendering of an
// earlier tree. Re-bless only for a deliberate change, with
// `go test ./internal/kernels -run Golden -update`.
func TestLUTKernelsGolden(t *testing.T) {
	c := DefaultCosts()
	designs := []func(lut.Spec) Kernel{
		func(s lut.Spec) Kernel { return NewOPKernel(c, s) },
		func(s lut.Spec) Kernel { return NewOPDRAMKernel(c, s) },
		func(s lut.Spec) Kernel { return NewOPLCKernel(c, s) },
		func(s lut.Spec) Kernel { return NewOPLCRCKernel(c, s) },
		func(s lut.Spec) Kernel { return NewStreamKernel(c, s, 1) },
		func(s lut.Spec) Kernel { return NewStreamKernel(c, s, 2) },
		func(s lut.Spec) Kernel { return NewStreamKernel(c, s, 3) },
	}
	shapes := [][3]int{{300, 250, 1}, {300, 250, 2}, {300, 250, 3}, {300, 250, 33}, {1, 7, 1}}
	cfg := pim.DefaultConfig()
	var b strings.Builder
	for _, f := range quant.Formats {
		for p := 1; p <= 8; p++ {
			spec, err := lut.NewSpec(f, p)
			if err != nil {
				continue
			}
			for _, mk := range designs {
				kn := mk(spec)
				for _, sh := range shapes {
					pair := workload.NewGEMMPair(sh[0], sh[1], sh[2], f, 7)
					tile, err := NewTile(sh[0], sh[1], sh[2], f, pair.W.Codes, pair.A.Codes)
					if err != nil {
						t.Fatal(err)
					}
					fd := pim.NewDPU(&cfg)
					fres, ferr := kn.Run(fd, tile)
					shapeTile, err := NewShapeTile(sh[0], sh[1], sh[2], f)
					if err != nil {
						t.Fatal(err)
					}
					cd := pim.NewAccountingDPU(&cfg)
					cres, cerr := kn.Run(cd, shapeTile)
					fmt.Fprintf(&b, "%s %s %dx%dx%d err=%t/%t", spec, kn.Name(), sh[0], sh[1], sh[2], ferr != nil, cerr != nil)
					if cerr == nil {
						fmt.Fprintf(&b, " %+v %+v", *cres, cd.Meter)
					}
					if ferr == nil {
						fmt.Fprintf(&b, " verified=%t same=%t", VerifyTile(NewWorkspace(), tile),
							cerr == nil && *fres == *cres && fd.Meter == cd.Meter)
					}
					b.WriteByte('\n')
				}
			}
			// Every in-budget table of this spec has been built; drop them so
			// the test holds one spec's tables at a time.
			lut.ResetCache()
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "lut_kernels.golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
