package gemm

import (
	"reflect"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// runGrid executes one full-grid run at the given parallelism.
func runGrid(t *testing.T, parallelism int, f quant.Format, m, k, n int, v kernels.Variant, opt Options) *Report {
	t.Helper()
	e := NewEngine()
	e.Exec = ExecOptions{Parallelism: parallelism, FullGrid: true}
	opt.Variant = v
	rep, err := e.Run(workload.NewGEMMPair(m, k, n, f, 1), opt)
	if err != nil {
		t.Fatalf("%v parallelism=%d: %v", v, parallelism, err)
	}
	return rep
}

// TestParallelMatchesSerial is the engine's core determinism guarantee: the
// sharded worker-pool execution produces bit-identical reports to the serial
// loop for every design point — same simulated cycle counts, same event
// meters, same verified outputs.
func TestParallelMatchesSerial(t *testing.T) {
	const m, k, n = 96, 64, 24
	for _, v := range kernels.Variants {
		serial := runGrid(t, 1, quant.W1A3, m, k, n, v, Options{ComputeFull: true})
		parallel := runGrid(t, 8, quant.W1A3, m, k, n, v, Options{ComputeFull: true})

		if !serial.Verified || !parallel.Verified {
			t.Fatalf("%v: verified=%v/%v, want true/true", v, serial.Verified, parallel.Verified)
		}
		if serial.KernelCycles != parallel.KernelCycles {
			t.Fatalf("%v: kernel cycles diverge: serial %d, parallel %d",
				v, serial.KernelCycles, parallel.KernelCycles)
		}
		if serial.Meter != parallel.Meter {
			t.Fatalf("%v: meters diverge:\nserial   %+v\nparallel %+v", v, serial.Meter, parallel.Meter)
		}
		if serial.Total != parallel.Total {
			t.Fatalf("%v: totals diverge: %g vs %g", v, serial.Total, parallel.Total)
		}
		if !reflect.DeepEqual(serial.Output, parallel.Output) {
			t.Fatalf("%v: outputs diverge", v)
		}
		if serial.BanksSimulated != parallel.BanksSimulated || serial.BanksSimulated < 2 {
			t.Fatalf("%v: banks simulated %d/%d, want equal and >= 2",
				v, serial.BanksSimulated, parallel.BanksSimulated)
		}
	}
}

// TestFullGridOutputMatchesReference checks the assembled full product
// against the integer reference GEMM.
func TestFullGridOutputMatchesReference(t *testing.T) {
	pair := workload.NewGEMMPair(33, 40, 17, quant.W2A2, 7)
	e := NewEngine()
	e.Exec = ExecOptions{FullGrid: true}
	rep, err := e.Run(pair, Options{Variant: kernels.LoCaLUT, ComputeFull: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := fullTile(pair)
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.RefGEMM(full); !reflect.DeepEqual(rep.Output, want) {
		t.Fatal("assembled full-grid output differs from the integer reference")
	}
}

// TestParallelMatchesSerialMultiRound forces more bank tiles than DPUs so
// the round-by-round max aggregation is exercised.
func TestParallelMatchesSerialMultiRound(t *testing.T) {
	run := func(parallelism int) *Report {
		e := NewEngine()
		e.Cfg.Ranks, e.Cfg.BanksPerRank = 1, 4
		e.Exec = ExecOptions{Parallelism: parallelism, FullGrid: true}
		rep, err := e.Run(workload.NewGEMMPair(6000, 16, 8, quant.W1A4, 3),
			Options{Variant: kernels.Naive, NSplitOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, parallel := run(1), run(6)
	if serial.Rounds < 2 {
		t.Fatalf("want a multi-round grid, got rounds=%d (grid %dx%d over %d banks)",
			serial.Rounds, serial.GridM, serial.GridN, 4)
	}
	if serial.KernelCycles != parallel.KernelCycles || serial.Meter != parallel.Meter {
		t.Fatalf("multi-round runs diverge: cycles %d vs %d", serial.KernelCycles, parallel.KernelCycles)
	}
}

// TestRunBatchMatchesSequential checks that the batched API returns the same
// reports as one-at-a-time execution and actually hits the decision cache.
func TestRunBatchMatchesSequential(t *testing.T) {
	shapes := [][3]int{{64, 48, 16}, {64, 48, 16}, {32, 48, 24}, {64, 48, 16}}
	pairs := make([]*workload.GEMMPair, len(shapes))
	for i, s := range shapes {
		pairs[i] = workload.NewGEMMPair(s[0], s[1], s[2], quant.W1A3, int64(i))
	}
	opt := Options{Variant: kernels.LoCaLUT}

	e := NewEngine()
	batch, err := e.RunBatch(pairs, opt)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.Decisions.Stats()
	if hits == 0 {
		t.Fatalf("decision cache unused across the batch (hits=%d misses=%d)", hits, misses)
	}

	ref := NewEngine()
	for i, pair := range pairs {
		want, err := ref.Run(pair, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if got.KernelCycles != want.KernelCycles || got.Total != want.Total ||
			got.P != want.P || got.Meter != want.Meter {
			t.Fatalf("batch member %d diverges from sequential run", i)
		}
	}
}

// TestRepresentativeModeUnchanged pins the default verification scope: no
// full grid, one simulated bank, and KernelCycles still priced over the
// whole grid (TestClassPricingMatchesFullGrid pins that price against the
// full-grid scope).
func TestRepresentativeModeUnchanged(t *testing.T) {
	e := NewEngine()
	rep, err := e.Run(workload.NewGEMMPair(96, 64, 24, quant.W1A3, 1),
		Options{Variant: kernels.LoCaLUT})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BanksSimulated != 1 {
		t.Fatalf("default mode simulated %d banks, want 1", rep.BanksSimulated)
	}
	if rep.KernelCycles <= 0 {
		t.Fatalf("KernelCycles not populated: %d", rep.KernelCycles)
	}
}
