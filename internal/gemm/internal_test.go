package gemm

import (
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// TestEstimatorTracksSimulation: the grid planner's analytic per-tile
// estimate must stay within a factor of ~2 of the simulated kernel cycles,
// or grid choices would be garbage.
func TestEstimatorTracksSimulation(t *testing.T) {
	e := NewEngine()
	for _, v := range kernels.Variants {
		for _, f := range []quant.Format{quant.W1A3, quant.W4A4} {
			pair := workload.NewGEMMPair(256, 256, 4, f, 3)
			rep, err := e.Run(pair, Options{Variant: v, NSplitOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			est := e.estimateTileCycles(v, f, rep.TileM, 256, rep.TileN)
			sim := rep.KernelSeconds * e.Cfg.ClockHz
			ratio := est / sim
			if ratio < 0.3 || ratio > 3.0 {
				t.Errorf("%v %s: estimate/sim ratio %.2f (est %.0f sim %.0f)",
					v, f.Name(), ratio, est, sim)
			}
		}
	}
}

// TestTransferBroadcastModel: replicating A-metadata across M-stripes must
// cost one scatter plus one broadcast, not gridM scatters.
func TestTransferBroadcastModel(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(2048, 256, 8, quant.W1A3, 3)
	rep, err := e.Run(pair, Options{Variant: kernels.Naive})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GridM < 2 {
		t.Skip("planner did not split M")
	}
	unique := float64(256 * 8) // naive ships K x N bytes
	maxXfer := unique/e.Cfg.HostToPIMBW + unique/e.Cfg.HostBroadcastBW +
		float64(2048*8*4)/e.Cfg.PIMToHostBW
	if rep.Transfer > maxXfer*1.01 {
		t.Errorf("transfer %.3g exceeds broadcast-model bound %.3g (gridM=%d)",
			rep.Transfer, maxXfer, rep.GridM)
	}
}

// TestInitChargedOncePerLayer: InitSeconds must cover LUT build + broadcast
// and grow with the LUT size.
func TestInitChargedOncePerLayer(t *testing.T) {
	e := NewEngine()
	pair := workload.NewGEMMPair(128, 128, 8, quant.W1A3, 3)
	small, err := e.Run(pair, Options{Variant: kernels.OP}) // p=3, 8 KB LUT
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.Run(pair, Options{Variant: kernels.LoCaLUT, ForceP: 8, ForceStreaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if big.InitSeconds <= small.InitSeconds {
		t.Errorf("12 MB LUT init (%.3g) should exceed 8 KB LUT init (%.3g)",
			big.InitSeconds, small.InitSeconds)
	}
}

// TestEngineRejectsInvalidConfig: configuration errors must surface.
func TestEngineRejectsInvalidConfig(t *testing.T) {
	e := NewEngine()
	e.Cfg.Ranks = 0
	pair := workload.NewGEMMPair(16, 16, 2, quant.W1A3, 1)
	if _, err := e.Run(pair, Options{Variant: kernels.Naive}); err == nil {
		t.Error("accepted Ranks=0")
	}
}

// TestMetaRecordWidths pins the transfer-relevant record sizes.
func TestMetaRecordWidths(t *testing.T) {
	cases := []struct {
		v    kernels.Variant
		f    quant.Format
		p    int
		want int64
	}{
		{kernels.LoCaLUT, quant.W1A3, 8, 8}, // 4 B canonical offset + 4 B reorder offset
		{kernels.OPLCRC, quant.W2A2, 4, 4},  // 2 B + 2 B
		{kernels.OP, quant.W1A3, 3, 2},      // 512-entry row -> 2 B
	}
	for _, c := range cases {
		got := actBytesPerColumn(lut.MustSpec(c.f, c.p), c.p, c.v) // K = p -> one group
		if got != c.want {
			t.Errorf("%v %s p=%d: record = %d B, want %d", c.v, c.f.Name(), c.p, got, c.want)
		}
	}
}
