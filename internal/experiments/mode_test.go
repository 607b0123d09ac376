package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
)

// TestFigureModeEquivalence regenerates figures under both execution modes
// and requires identical rendered tables and values — including the drivers
// that bypass the engine and run kernels on their own DPUs (fig03, fig18)
// and the runGEMM callers that force the plan (ForceP/ForceStreaming in
// fig11, fig12 and fig17, ForceK in fig16), where the cycles-only side runs
// on shape-only pairs.
func TestFigureModeEquivalence(t *testing.T) {
	for _, id := range []string{"fig03", "fig09", "fig11", "fig12", "fig16", "fig17", "fig18"} {
		fs := NewQuick()
		fr, err := fs.RunFigure(id)
		if err != nil {
			t.Fatalf("%s functional: %v", id, err)
		}
		cs := NewQuick()
		cs.Mode = kernels.CyclesOnly
		cr, err := cs.RunFigure(id)
		if err != nil {
			t.Fatalf("%s cycles-only: %v", id, err)
		}

		var fb, cb strings.Builder
		fr.Render(&fb)
		cr.Render(&cb)
		if fb.String() != cb.String() {
			t.Errorf("%s: rendered tables diverge across modes\nfunctional:\n%s\ncycles-only:\n%s",
				id, fb.String(), cb.String())
		}
		if !reflect.DeepEqual(fr.Values, cr.Values) {
			t.Errorf("%s: values diverge across modes\n functional  %v\n cycles-only %v", id, fr.Values, cr.Values)
		}
	}
}

// TestCyclesOnlyFiguresBuildNoOperands pins what Engine.NewPair buys the
// figure suite: a cycles-only figure neither allocates operand tensors (one
// quick fig09 pair alone is several MB of Gaussian draws) nor depends on the
// seed that would have drawn them.
func TestCyclesOnlyFiguresBuildNoOperands(t *testing.T) {
	run := func(seed int64) (*Result, uint64) {
		s := NewQuick()
		s.Mode = kernels.CyclesOnly
		s.Seed = seed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := s.RunFigure("fig09")
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return r, after.TotalAlloc - before.TotalAlloc
	}
	r1, _ := run(1) // also warms the process-wide table caches
	r7, bytes := run(7)
	if !reflect.DeepEqual(r1, r7) {
		t.Errorf("cycles-only fig09 depends on the operand seed:\n seed 1 %+v\n seed 7 %+v", r1, r7)
	}
	if budget := uint64(1 << 20); bytes > budget {
		t.Errorf("cycles-only quick fig09 allocated %d B, budget %d B", bytes, budget)
	}
}

// TestSweepModeEquivalence pins GEMMSweep across modes: identical rows up
// to the Verified flag.
func TestSweepModeEquivalence(t *testing.T) {
	fn, err := GEMMSweep(96, 64, 24, quant.W1A3, 2, kernels.Functional)
	if err != nil {
		t.Fatal(err)
	}
	cy, err := GEMMSweep(96, 64, 24, quant.W1A3, 2, kernels.CyclesOnly)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fn {
		if !fn[i].Verified {
			t.Errorf("%s: functional sweep row not verified", fn[i].Design)
		}
		if cy[i].Verified {
			t.Errorf("%s: cycles-only sweep row claims verification", cy[i].Design)
		}
		if !fn[i].SameCost(cy[i]) {
			t.Errorf("sweep rows diverge across modes\n functional  %+v\n cycles-only %+v", fn[i], cy[i])
		}
	}
}
