// Package kernels implements the per-bank GEMM kernels LoCaLUT's evaluation
// compares (§VI-A): the Naive PIM MAC kernel, the LUT-Tensor-Core-style
// bit-serial kernel (LTC), and the operation-packed LUT kernel with the
// ladder of mechanisms the paper builds on it — OP, OP+LC, OP+LC+RC and the
// full LoCaLUT design with LUT slice streaming (OP+LC+RC+SS), plus the
// Fig. 3(a) DRAM-resident OP candidate, OP(DRAM).
//
// The five packed-LUT designs are one LUTKernel and one column loop. A
// design point is two mechanisms, set by its constructor:
//
//   - residency, where the table lives while the kernel runs: whole in WRAM
//     (OP, OP+LC, OP+LC+RC); in MRAM with one DMA per lookup (OP(DRAM)); or
//     in MRAM with the referenced slices streamed into WRAM per batch of k
//     groups (LoCaLUT);
//   - indexing, how a packed weight vector finds its entry: by
//     concatenation with the packed activation index in the op-packed
//     table (OP, OP(DRAM)); in the canonical table after a software
//     reorder (OP+LC); or in the canonical table after a reordering-LUT
//     lookup (OP+LC+RC, LoCaLUT).
//
// The loop branches on a mechanism only where it changes what runs: the
// budget check, the metadata record (metaLayout), the tables and WRAM
// buffers, the slice stream, the functional lookup and the per-chunk
// charges.
//
// A design's LUT footprint is written once, in TableBytes. The budget check
// reads it, and so do the planner's packing-degree search
// (costmodel.MaxP), its grid estimate and its LUT-init charge, so a p the
// planner picks is a p the kernel accepts.
//
// Every kernel is functional *and* cycle-charged: it computes the exact
// integer tile product by moving real bytes through the pim.DPU's MRAM, DMA
// and WRAM objects, while charging the documented instruction budget of its
// inner loop. Unit tests check each kernel bit-exact against RefGEMM, so the
// timing model and the arithmetic can never drift apart.
//
// Each Run is structured as two interleaved programs — a cost program (the
// charge sequence, a data-independent function of the tile shape) and a
// data program (the byte work). Mode selects how much runs: Functional
// executes both; CyclesOnly executes only the cost program on an
// accounting DPU (pim.NewAccountingDPU) with a data-less NewShapeTile,
// producing bit-identical cycles, meters and breakdowns at O(meter
// updates) host cost. Mode-equivalence tests pin that guarantee for every
// kernel.
//
// # Column fold
//
// A cost program also charges each distinct column once. The packed-LUT
// loop and LTC's both start with n = x.foldColumns(n, t.N). On an
// accounting DPU with N >= 3 that runs column 0, adds N-2 copies of its
// delta to Cycles, to every event class and to every breakdown bucket, and
// runs column N-1. The copies are exact because a cost-mode column's
// charges depend only on the tile shape: the same instruction counts, the
// same transfer sizes (a DMA's cycles depend on its size, not its offset),
// in the same order, and every column both starts and ends on a breakdown
// charge. Its offsets are linear in n and only bounds-checked, so with both
// extreme columns run the checks of the ones between cannot fail.
// Functional mode runs every column. Naive does not fold: its cost program
// already charges a whole chunk of columns as one batch, and a tile rarely
// spans more than one chunk.
//
// Kernels are stateless after construction — all mutable state lives in the
// DPU and Tile passed to Run — so one kernel instance may execute many bank
// tiles concurrently from the sharded engine. Shared LUT tables come from
// the process-wide cache in package lut and are mapped read-only into each
// simulated bank (pim.MRAM.Map) rather than copied, keeping host memory
// independent of the bank count.
package kernels
