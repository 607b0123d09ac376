package localut

import (
	"reflect"
	"testing"

	"github.com/ais-snu/localut/internal/workload"
)

// TestWithCyclesOnlyMatchesFunctional pins the public-API guarantee: a
// system in cycles-only mode reports the same timing, cycle counts and
// energy as a functional one for every design, with only verification and
// outputs absent.
func TestWithCyclesOnlyMatchesFunctional(t *testing.T) {
	const m, k, n = 96, 128, 24
	for _, full := range []bool{false, true} {
		opts := []Option{WithSeed(3)}
		if full {
			opts = append(opts, WithFullBankSimulation())
		}
		fs := NewSystem(opts...)
		cs := NewSystem(append(opts, WithCyclesOnly())...)

		for _, d := range Designs {
			fr, err := fs.GEMM(W1A3, m, k, n, d)
			if err != nil {
				t.Fatalf("%v functional: %v", d, err)
			}
			cr, err := cs.GEMM(W1A3, m, k, n, d)
			if err != nil {
				t.Fatalf("%v cycles-only: %v", d, err)
			}
			if !fr.Verified {
				t.Errorf("%v: functional result not verified", d)
			}
			if cr.Verified {
				t.Errorf("%v: cycles-only result claims verification", d)
			}
			if fr.KernelCycles != cr.KernelCycles {
				t.Errorf("%v full=%v: cycles %d != %d", d, full, fr.KernelCycles, cr.KernelCycles)
			}
			if fr.TotalSeconds != cr.TotalSeconds || fr.KernelSeconds != cr.KernelSeconds ||
				fr.HostSeconds != cr.HostSeconds || fr.Transfer != cr.Transfer {
				t.Errorf("%v full=%v: timing diverges: %+v vs %+v", d, full, fr, cr)
			}
			if fr.EnergyJ != cr.EnergyJ {
				t.Errorf("%v full=%v: energy %g J != %g J", d, full, fr.EnergyJ, cr.EnergyJ)
			}
			if fr.P != cr.P || fr.SliceK != cr.SliceK || fr.Streaming != cr.Streaming ||
				fr.BanksSimulated != cr.BanksSimulated {
				t.Errorf("%v full=%v: plan diverges: %+v vs %+v", d, full, fr, cr)
			}
		}
	}
}

// TestCyclesOnlyInference checks end-to-end transformer inference under the
// cycles-only backend against the functional run.
func TestCyclesOnlyInference(t *testing.T) {
	fs := NewSystem()
	cs := NewSystem(WithCyclesOnly())
	opt := InferOptions{Batch: 1}
	fr, err := fs.Infer(BERTBase, W1A3, DesignLoCaLUT, opt)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cs.Infer(BERTBase, W1A3, DesignLoCaLUT, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fr.TotalSeconds != cr.TotalSeconds {
		t.Errorf("inference seconds diverge: %g vs %g", fr.TotalSeconds, cr.TotalSeconds)
	}
	if fr.EnergyJ != cr.EnergyJ {
		t.Errorf("inference energy diverges: %g vs %g", fr.EnergyJ, cr.EnergyJ)
	}
	if fr.Prefill != cr.Prefill {
		t.Errorf("prefill phases diverge: %+v vs %+v", fr.Prefill, cr.Prefill)
	}
}

// TestCyclesOnlyGEMMBuildsNoOperands pins the facade's side of
// gemm.Engine.NewPair: under WithCyclesOnly, GEMM and GEMMBatch run on
// shape-only pairs yet report exactly what the seeded operands would have,
// whatever the seed; WithFullOutput still gets real operands to multiply.
func TestCyclesOnlyGEMMBuildsNoOperands(t *testing.T) {
	shapes := []GEMMShape{{96, 128, 24}, {33, 40, 17}, {256, 64, 8}}
	opts := []GEMMOption{WithPaperTiling()}
	o := gemmOptions(DesignLoCaLUT, opts)
	var first []*GEMMResult
	for _, seed := range []int64{1, 7} {
		cs := NewSystem(WithCyclesOnly(), WithSeed(seed))
		var got []*GEMMResult
		for i, sh := range shapes {
			// The pre-NewPair behaviour: seeded operands into the same engine.
			want, err := cs.run(workload.NewGEMMPair(sh.M, sh.K, sh.N, W1A3.inner, seed), DesignLoCaLUT, o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cs.GEMM(W1A3, sh.M, sh.K, sh.N, DesignLoCaLUT, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Errorf("seed %d shape %d: GEMM %+v, with operands %+v", seed, i, r, want)
			}
			got = append(got, r)
		}
		batch, err := cs.GEMMBatch(W1A3, shapes, DesignLoCaLUT, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch, got) {
			t.Errorf("seed %d: GEMMBatch diverges from per-shape GEMM", seed)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Errorf("cycles-only results depend on the seed")
		}
	}

	// WithFullOutput asks for data, so the operands must exist in both modes.
	fr, err := NewSystem(WithSeed(7)).GEMM(W2A2, 33, 40, 17, DesignOP, WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewSystem(WithCyclesOnly(), WithSeed(7))
	cr, err := cs.GEMM(W2A2, 33, 40, 17, DesignOP, WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Output) != 33*17 || !reflect.DeepEqual(cr.Output, fr.Output) {
		t.Errorf("cycles-only WithFullOutput product differs from the functional one")
	}
	cb, err := cs.GEMMBatch(W2A2, []GEMMShape{{8, 8, 8}, {33, 40, 17}}, DesignOP, WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	// Batch member 1 draws its operands with seed+1.
	fb, err := NewSystem(WithSeed(8)).GEMM(W2A2, 33, 40, 17, DesignOP, WithFullOutput())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cb[1].Output, fb.Output) {
		t.Errorf("cycles-only GEMMBatch WithFullOutput product differs from the functional one")
	}

	// A shape-only pair reaching a functional engine is an error, not a nil
	// dereference in the tile builder.
	if _, err := NewSystem().run(workload.NewShapePair(33, 40, 17, W1A3.inner), DesignLoCaLUT, o); err == nil {
		t.Error("functional system accepted a shape-only pair")
	}
}
