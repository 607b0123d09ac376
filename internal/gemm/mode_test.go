package gemm

import (
	"reflect"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// stripFunctionalOnly clears the report fields that exist only when the
// data program ran: verification and outputs. Everything else — timing,
// meters, breakdowns, plan — must be bit-identical across modes.
func stripFunctionalOnly(r *Report) Report {
	c := *r
	c.Verified = false
	c.Output = nil
	return c
}

// TestModeEquivalence pins the tentpole acceptance criterion at engine
// level: for every design, across the quick-suite shapes, at several
// parallelism levels, in both verification scopes (bank (0,0) and full grid),
// CyclesOnly reports are bit-identical to Functional ones up to the
// functional-only fields.
func TestModeEquivalence(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{64, 96, 16},
		{128, 128, 24}, // uneven N split over the bank grid
	}
	for _, f := range []quant.Format{quant.W1A3, quant.W2A2} {
		for _, fullGrid := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				for _, v := range kernels.Variants {
					for _, sh := range shapes {
						pair := workload.NewGEMMPair(sh.m, sh.k, sh.n, f, 1)

						fe := NewEngine()
						fe.Exec = ExecOptions{Parallelism: par, FullGrid: fullGrid, Mode: kernels.Functional}
						frep, err := fe.Run(pair, Options{Variant: v})
						if err != nil {
							t.Fatalf("%v %s functional: %v", v, f.Name(), err)
						}

						ce := NewEngine()
						ce.Exec = ExecOptions{Parallelism: par, FullGrid: fullGrid, Mode: kernels.CyclesOnly}
						crep, err := ce.Run(pair, Options{Variant: v})
						if err != nil {
							t.Fatalf("%v %s cycles-only: %v", v, f.Name(), err)
						}

						if !frep.Verified {
							t.Errorf("%v %s: functional run not verified", v, f.Name())
						}
						if crep.Verified {
							t.Errorf("%v %s: cycles-only run claims verification", v, f.Name())
						}
						fr, cr := stripFunctionalOnly(frep), stripFunctionalOnly(crep)
						if !reflect.DeepEqual(fr, cr) {
							t.Errorf("%v %s %dx%dx%d fullGrid=%v j=%d: reports diverge\n functional  %+v\n cycles-only %+v",
								v, f.Name(), sh.m, sh.k, sh.n, fullGrid, par, fr, cr)
						}
					}
				}
			}
		}
	}
}

// TestCostMemoSharing checks that identical-shape bank tiles share one cost
// record: a full-grid cycles-only run over many banks must execute at most
// a handful of distinct shapes, and a repeat run must be all hits.
func TestCostMemoSharing(t *testing.T) {
	e := NewEngine()
	e.Exec = ExecOptions{Parallelism: 2, FullGrid: true, Mode: kernels.CyclesOnly}
	pair := workload.NewGEMMPair(96, 64, 48, quant.W1A3, 1)

	rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BanksSimulated < 8 {
		t.Fatalf("expected a multi-bank grid, got %d banks", rep.BanksSimulated)
	}
	_, misses := e.CostRecords.Stats()
	if misses > 4 {
		t.Errorf("first run executed %d distinct shapes; a ceil-division grid has at most 4", misses)
	}

	if _, err := e.Run(pair, Options{Variant: kernels.LoCaLUT}); err != nil {
		t.Fatal(err)
	}
	hits, misses2 := e.CostRecords.Stats()
	if misses2 != misses {
		t.Errorf("repeat run re-executed shapes: misses %d -> %d", misses, misses2)
	}
	if hits == 0 {
		t.Errorf("repeat run recorded no memo hits")
	}
}

// TestBatchModeEquivalence checks RunBatch: batched cycles-only members are
// identical to batched functional members (and therefore to sequential
// runs, which parallel_test pins for functional mode).
func TestBatchModeEquivalence(t *testing.T) {
	shapes := []struct{ m, k, n int }{{64, 96, 16}, {48, 64, 8}, {64, 96, 16}}
	pairs := make([]*workload.GEMMPair, len(shapes))
	for i, sh := range shapes {
		pairs[i] = workload.NewGEMMPair(sh.m, sh.k, sh.n, quant.W1A3, int64(i)+1)
	}

	fe := NewEngine()
	fe.Exec = ExecOptions{Parallelism: 4, FullGrid: true, Mode: kernels.Functional}
	freps, err := fe.RunBatch(pairs, Options{Variant: kernels.LoCaLUT})
	if err != nil {
		t.Fatal(err)
	}

	ce := NewEngine()
	ce.Exec = ExecOptions{Parallelism: 4, FullGrid: true, Mode: kernels.CyclesOnly}
	creps, err := ce.RunBatch(pairs, Options{Variant: kernels.LoCaLUT})
	if err != nil {
		t.Fatal(err)
	}

	for i := range freps {
		fr, cr := stripFunctionalOnly(freps[i]), stripFunctionalOnly(creps[i])
		if !reflect.DeepEqual(fr, cr) {
			t.Errorf("batch member %d diverges across modes\n functional  %+v\n cycles-only %+v", i, fr, cr)
		}
	}
}

// TestCyclesOnlyComputeFullFallsBackToHost checks that callers asking for
// the full product in cycles-only mode still get it, from the host
// reference rather than the (absent) simulated banks.
func TestCyclesOnlyComputeFullFallsBackToHost(t *testing.T) {
	pair := workload.NewGEMMPair(16, 24, 8, quant.W1A3, 1)

	fe := NewEngine()
	fe.Exec = ExecOptions{FullGrid: true}
	frep, err := fe.Run(pair, Options{Variant: kernels.OP, ComputeFull: true})
	if err != nil {
		t.Fatal(err)
	}

	ce := NewEngine()
	ce.Exec = ExecOptions{FullGrid: true, Mode: kernels.CyclesOnly}
	crep, err := ce.Run(pair, Options{Variant: kernels.OP, ComputeFull: true})
	if err != nil {
		t.Fatal(err)
	}
	if crep.Output == nil {
		t.Fatal("cycles-only ComputeFull returned no output")
	}
	if len(crep.Output) != len(frep.Output) {
		t.Fatalf("output length %d != %d", len(crep.Output), len(frep.Output))
	}
	for i := range crep.Output {
		if crep.Output[i] != frep.Output[i] {
			t.Fatalf("output[%d] = %d, functional %d", i, crep.Output[i], frep.Output[i])
		}
	}
}

// TestNewPairFollowsMode pins the one rule about synthetic operands: a
// cycles-only engine hands out shape-only pairs (and prices them exactly as it
// prices the seeded pair), a functional engine the seeded pair itself.
func TestNewPairFollowsMode(t *testing.T) {
	const m, k, n = 96, 64, 48
	seeded := workload.NewGEMMPair(m, k, n, quant.W1A3, 5)

	fe := NewEngine()
	if got, err := fe.NewPair(m, k, n, quant.W1A3, 5); err != nil || !reflect.DeepEqual(got, seeded) {
		t.Error("functional NewPair is not workload.NewGEMMPair at the same seed")
	}

	for _, full := range []bool{false, true} {
		ce := NewEngine()
		ce.Exec = ExecOptions{Mode: kernels.CyclesOnly, FullGrid: full, Parallelism: 1}
		shape, err := ce.NewPair(m, k, n, quant.W1A3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if shape.W != nil || shape.A != nil {
			t.Fatal("cycles-only NewPair built operands")
		}
		for _, v := range kernels.Variants {
			want, err := ce.Run(seeded, Options{Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ce.Run(shape, Options{Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v full=%v: shape-only report %+v, seeded %+v", v, full, got, want)
			}
		}
	}
}
