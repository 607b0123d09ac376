package kernels

import (
	"fmt"
	"testing"

	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// Kernel micro-benchmarks: one bank tile per iteration, covering the
// packed-LUT designs in both execution modes. They are the repo's perf
// trajectory at kernel granularity (cmd/perfbench's
// kernels.cost_program_us_per_tile rungs time the same cost programs); run
// with
//
//	go test -bench=. -benchtime=1x ./internal/kernels/
//
// for a smoke pass or longer -benchtime for stable numbers.

const benchM, benchK, benchN = 256, 256, 32

func benchKernel(b *testing.B, kn Kernel, mode Mode) {
	b.Helper()
	f := quant.W1A3
	cfg := pim.DefaultConfig()
	var tile *Tile
	var err error
	if mode == CyclesOnly {
		tile, err = NewShapeTile(benchM, benchK, benchN, f)
	} else {
		pair := workload.NewGEMMPair(benchM, benchK, benchN, f, 1)
		tile, err = NewTile(benchM, benchK, benchN, f, pair.W.Codes, pair.A.Codes)
	}
	if err != nil {
		b.Fatal(err)
	}
	d := DPUForMode(&cfg, mode)
	// Warm-up builds the process-wide LUT tables outside the timer.
	if _, err := kn.Run(d, tile); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kn.Run(d, tile); err != nil {
			b.Fatal(err)
		}
	}
}

func benchModes(b *testing.B, mk func() Kernel) {
	b.Helper()
	for _, mode := range []Mode{Functional, CyclesOnly} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			benchKernel(b, mk(), mode)
		})
	}
}

func BenchmarkOPKernel(b *testing.B) {
	benchModes(b, func() Kernel { return NewOPKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 2)) })
}

func BenchmarkOPDRAMKernel(b *testing.B) {
	benchModes(b, func() Kernel { return NewOPDRAMKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 4)) })
}

func BenchmarkOPLCKernel(b *testing.B) {
	benchModes(b, func() Kernel { return NewOPLCKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 4)) })
}

func BenchmarkOPLCRCKernel(b *testing.B) {
	benchModes(b, func() Kernel { return NewOPLCRCKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 4)) })
}

func BenchmarkStreamKernelModes(b *testing.B) {
	benchModes(b, func() Kernel { return NewStreamKernel(DefaultCosts(), lut.MustSpec(quant.W1A3, 6), 2) })
}
