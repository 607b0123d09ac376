package experiments

import (
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
)

// SweepRow is one design point of a full-grid GEMM sweep.
type SweepRow struct {
	Design       string
	P, SliceK    int
	Streaming    bool
	Banks        int // bank tiles accounted
	KernelCycles int64
	SimSeconds   float64 // simulated end-to-end seconds
	Verified     bool
}

// SameCost reports whether two rows agree on everything the cost model
// produces — design point, bank count, cycles, simulated seconds. Verified
// is excluded: it records whether the functional data program ran, which is
// exactly what differs between execution modes with identical costs.
func (r SweepRow) SameCost(o SweepRow) bool {
	r.Verified = false
	o.Verified = false
	return r == o
}

// GEMMSweep runs every kernel design of one seeded M x K x N GEMM through
// the full-grid sharded execution engine at the given host parallelism
// (0 = NumCPU, 1 = serial) and execution mode. In Functional mode every
// bank tile of every design is simulated and verified bit-exact; in
// CyclesOnly mode the same grid is priced from its tile classes alone
// (identical cycles, no outputs, Verified=false). The rows are identical at
// any parallelism — only the host wall-clock changes — which is exactly
// what localut-bench's -compare mode checks, across modes as well.
func GEMMSweep(m, k, n int, f quant.Format, parallelism int, mode kernels.Mode) ([]SweepRow, error) {
	e := gemm.NewEngine()
	e.Exec = gemm.ExecOptions{Parallelism: parallelism, FullGrid: true, Mode: mode}
	pair, err := e.NewPair(m, k, n, f, 1)
	if err != nil {
		return nil, err
	}

	rows := make([]SweepRow, 0, len(kernels.Variants))
	for _, v := range kernels.Variants {
		rep, err := e.Run(pair, gemm.Options{Variant: v})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{
			Design: v.String(), P: rep.P, SliceK: rep.K, Streaming: rep.Streaming,
			Banks: rep.BanksSimulated, KernelCycles: rep.KernelCycles,
			SimSeconds: rep.Total, Verified: rep.Verified,
		})
	}
	return rows, nil
}
