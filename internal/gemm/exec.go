package gemm

import (
	"fmt"
	"runtime"

	"github.com/ais-snu/localut/internal/banksim"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/workload"
)

// ExecOptions selects the host-side execution strategy of the bank
// simulation. The simulated machine is unaffected: every GEMM is priced from
// its grid's tile classes whatever the options, so reports are identical at
// any host parallelism and in either verification scope.
type ExecOptions struct {
	// Parallelism is the worker-pool size used for bank shards and batch
	// members. 0 uses runtime.NumCPU(); 1 executes serially on the calling
	// goroutine.
	Parallelism int
	// FullGrid sets the functional verification scope: every non-empty bank
	// tile of the planned grid is simulated (sharded over the worker pool)
	// and verified bit-exact, and the full integer product is assembled
	// from the banks, instead of bank (0,0) alone. It does not change the
	// price: cycles, meters and breakdowns come from the tile classes in
	// every mode.
	FullGrid bool
	// Mode selects functional execution (default) or the cycles-only cost
	// program. Both price the grid from the memoized cost records of its
	// tile classes (Engine.CostRecords), which charge the exact same
	// Exec/Note/DMA sequence as the functional kernels. Functional mode
	// additionally runs the data program on the verified banks and checks
	// their outputs and their charges; CyclesOnly moves no bytes, builds no
	// LUT images and computes no outputs, so Report.Verified is false.
	Mode kernels.Mode
}

// workers resolves the pool size (ForEachShard applies the same default;
// RunBatch needs the concrete count to split it across members).
func (o ExecOptions) workers() int {
	if o.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallelism
}

// Clone returns an engine sharing this engine's decision cache but owning
// its configuration, so a caller can vary Cfg or Exec without affecting
// concurrent users. The cache is keyed by budget and stays valid across
// configuration changes.
func (e *Engine) Clone() *Engine {
	c := *e
	return &c
}

// bankTask is one bank's share of the planned grid: the tile covering
// output rows [m0, m0+tileM) and columns [n0, n0+tileN).
type bankTask struct {
	m0, n0       int
	tileM, tileN int
}

// tileClasses is a planned grid's non-empty part: rows [0, rM) and columns
// [0, rN). Ceil-division grids can hold empty trailing positions (M=4 over
// gridM=3 at tileM=2); those banks receive no work. Only the last row and
// the last column can be narrower than the planned tile, so a grid has at
// most four tile classes, indexed 2·lastRow + lastCol: interior, right
// edge, bottom edge, corner; n counts each class's banks.
type tileClasses struct {
	rM, rN int
	h, w   [2]int // height of a full row and of the last; widths likewise
	n      [4]int64
	rec    [4]costRecord
}

// isLast is 1 for the final index below n, else 0.
func isLast(x, n int) int {
	if x == n-1 {
		return 1
	}
	return 0
}

// class returns the class index of grid position (i, j).
func (c *tileClasses) class(i, j int) int { return 2*isLast(i, c.rM) + isLast(j, c.rN) }

// task returns the bank tile at non-empty grid position (i, j).
func (c *tileClasses) task(i, j int) bankTask {
	return bankTask{m0: i * c.h[0], n0: j * c.w[0], tileM: c.h[isLast(i, c.rM)], tileN: c.w[isLast(j, c.rN)]}
}

// priceGrid prices the planned grid from its tile classes and fills the
// report's KernelCycles, KernelSeconds, Meter and Breakdown. It reads one
// cost record per distinct tile shape through the engine's CostMemo (a
// uniform grid makes one lookup), then
//
//   - event counts and breakdown phases are the sum of count × record;
//   - Meter.Cycles is the slowest class present;
//   - kernel cycles are the sum over rounds (round = (i·gridN + j) /
//     NumDPUs) of the slowest class in each round — banks within a round
//     run concurrently on the PIM side.
//
// Integer arithmetic makes this equal to a bank-by-bank walk of the grid,
// in O(rows + rounds) time and without allocating.
func (e *Engine) priceGrid(pair *workload.GEMMPair, kn kernels.Kernel, rep *Report) (tileClasses, error) {
	c := tileClasses{rM: (pair.M + rep.TileM - 1) / rep.TileM, rN: (pair.N + rep.TileN - 1) / rep.TileN}
	c.h = [2]int{rep.TileM, pair.M - (c.rM-1)*rep.TileM}
	c.w = [2]int{rep.TileN, pair.N - (c.rN-1)*rep.TileN}
	c.n = [4]int64{int64(c.rM-1) * int64(c.rN-1), int64(c.rM - 1), int64(c.rN - 1), 1}
	for k, n := range c.n {
		if n == 0 {
			continue
		}
		h, w := c.h[k>>1], c.w[k&1]
		shared := false
		for p := 0; p < k && !shared; p++ {
			if c.n[p] > 0 && c.h[p>>1] == h && c.w[p&1] == w {
				c.rec[k], shared = c.rec[p], true
			}
		}
		if !shared {
			rec, err := e.runCost(kn, rep, pair.Fmt, h, pair.K, w)
			if err != nil {
				return c, err
			}
			c.rec[k] = rec
		}
		// n banks of one class: n times the events, one bank's wall-clock.
		m := c.rec[k].meter
		for ev := range m.Counts {
			m.Counts[ev] *= n
		}
		rep.Meter.Merge(&m)
		addBreakdown(&rep.Breakdown, &c.rec[k].breakdown, n)
	}
	rep.KernelCycles = c.kernelCycles(rep.GridN, e.Cfg.NumDPUs())
	rep.KernelSeconds = e.Cfg.Seconds(rep.KernelCycles)
	return c, nil
}

// kernelCycles sums, over the rounds of dpus banks each, the slowest class
// present in the round. Row i's non-empty banks are the consecutive indices
// [i·gridN, i·gridN + rN), so the walk visits each row once, plus once more
// for each round boundary that splits a row.
func (c *tileClasses) kernelCycles(gridN, dpus int) int64 {
	var total, roundMax int64
	round := 0
	for i := 0; i < c.rM; i++ {
		row := 2 * isLast(i, c.rM)
		start, end := i*gridN, i*gridN+c.rN
		for lo := start; lo < end; {
			r := lo / dpus
			hi := min(end, (r+1)*dpus)
			if r != round {
				total += roundMax
				roundMax, round = 0, r
			}
			if lo-start < c.rN-1 { // some bank left of the last column
				roundMax = max(roundMax, c.rec[row].cycles)
			}
			if hi == end { // the last column
				roundMax = max(roundMax, c.rec[row+1].cycles)
			}
			lo = hi
		}
	}
	return total + roundMax
}

// verifyGrid runs the functional data program on rep.BanksSimulated banks
// in row-major order — bank (0,0) by default, every non-empty bank under
// FullGrid — sharded over the worker pool. It checks each output bit-exact
// against the integer reference (the continuous functionality check of the
// paper's Appendix F) and each bank's cycles, meter and breakdown against
// its class's cost record, so the equivalence the pricing rests on is
// checked on every functional run. Under FullGrid with wantOutput it also
// assembles the full product from the banks.
//
// Each shard worker owns one execution arena for its whole strided bank
// set — the DPU's memories, the kernel workspace and the tile storage
// recycle across every bank tile, so the per-tile steady state allocates
// nothing. The kernel instance is shared: kernels are stateless.
func (e *Engine) verifyGrid(pair *workload.GEMMPair, kn kernels.Kernel, rep *Report, c tileClasses, wantOutput bool) error {
	var ref []int32
	if e.Exec.FullGrid {
		// Every tile is checked against its window of the memoized full
		// reference product: one O(MKN) computation per pair, shared by
		// every design run on it, bit-identical to a per-tile RefGEMM
		// because tiles partition the output. Workers write the assembled
		// product's disjoint windows directly.
		var err error
		if ref, err = e.refs.product(pair); err != nil {
			return err
		}
		if wantOutput {
			rep.Output = make([]int32, pair.M*pair.N)
		}
	}
	err := banksim.ForEachShardArena(rep.BanksSimulated, e.Exec.Parallelism,
		func() *execArena { return e.arenas.get(&e.Cfg) },
		e.arenas.put,
		func(ar *execArena, b int) error {
			i, j := b/c.rN, b%c.rN
			t := c.task(i, j)
			tile := ar.tileFor(pair, t)
			res, err := kn.RunRequest(ar.request(tile))
			if err != nil {
				return err
			}
			var ok bool
			if ref != nil {
				ok = verifyAgainst(ref, pair.N, t, tile.O)
			} else {
				ok = kernels.VerifyTile(ar.ws, tile)
			}
			if !ok {
				return fmt.Errorf("gemm: %s kernel output failed verification on bank tile (%d,%d)", kn.Name(), i, j)
			}
			if rec := &c.rec[c.class(i, j)]; res.Cycles != rec.cycles || ar.dpu.Meter != rec.meter || res.Breakdown != rec.breakdown {
				return fmt.Errorf("gemm: %s kernel charges on bank tile (%d,%d) differ from its cost program's", kn.Name(), i, j)
			}
			if rep.Output != nil {
				for m := 0; m < t.tileM; m++ {
					row := (t.m0+m)*pair.N + t.n0
					copy(rep.Output[row:row+t.tileN], tile.O[m*t.tileN:(m+1)*t.tileN])
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	rep.Verified = true
	return nil
}

// addBreakdown accumulates n copies of b into dst phase by phase.
func addBreakdown(dst, b *kernels.Breakdown, n int64) {
	dst.CanonAccess += n * b.CanonAccess
	dst.ReorderAccess += n * b.ReorderAccess
	dst.IdxCalc += n * b.IdxCalc
	dst.Transfer += n * b.Transfer
	dst.LUTLoad += n * b.LUTLoad
	dst.Accumulate += n * b.Accumulate
	dst.Other += n * b.Other
}

// RunBatch executes a batch of independent GEMMs, amortizing what one-off
// runs cannot: cost-model decisions are memoized in the engine's shared
// decision cache, LUT tables come from the process-wide cache, and batch
// members are dispatched concurrently across the worker pool. The pool
// budget is split between the member level and each member's bank shards
// (a one-member full-grid batch still uses every worker), and since reports
// are parallelism-independent by construction they are identical to
// len(pairs) sequential Run calls.
func (e *Engine) RunBatch(pairs []*workload.GEMMPair, opt Options) ([]*Report, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("gemm: empty batch")
	}
	reports := make([]*Report, len(pairs))
	workers := e.Exec.workers()
	memberWorkers := workers / len(pairs)
	if memberWorkers < 1 {
		memberWorkers = 1
	}
	err := banksim.ForEachShard(len(pairs), workers, func(i int) error {
		sub := e.Clone()
		sub.Exec.Parallelism = memberWorkers
		rep, err := sub.Run(pairs[i], opt)
		if err != nil {
			return fmt.Errorf("gemm: batch member %d: %w", i, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
