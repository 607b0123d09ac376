// Package banksim is the "in-house cycle-accurate simulator" of §VI-K: a
// Ramulator-class command-level DRAM bank timing model with pluggable
// per-bank processing units, used to study LoCaLUT on HBM-PIM-style
// bank-level PIM (Fig. 20) and its floating-point extension (Fig. 21a).
//
// Two unit designs are modelled on identical banks:
//
//   - SIMDPIM: the conventional bank-level PIM of HBM-PIM/AttAcc — a
//     16-lane fp16 MAC unit fed one 32-byte column burst per command.
//     Throughput is fixed by the lane count regardless of the operand's
//     logical precision.
//   - LUTPIM: LoCaLUT's replacement — sixteen 512 B canonical-LUT units
//     plus reordering units; one weight burst carries packed vectors for
//     all sixteen units, so each command retires 16*p MACs, at the price
//     of streaming LUT slices into the unit SRAMs whenever the activation
//     group batch advances.
//
// # Command trains
//
// Fig. 20/21-style studies sweep sizes and precisions, so host cost per bank
// matters. Commands are charged at two granularities, the second
// bit-identical to the first (tests and two fuzz targets pin them against
// each other):
//
//   - access: one column command — a TCCD hit on the open row, TRCD+TCL on
//     a precharged bank, TRP+TRCD+TCL on a row conflict. Tests replay it
//     burst by burst as the reference;
//   - train: any run of column commands whose start addresses rise in steps
//     of at most BurstBytes, in O(1), from the first burst's address, the
//     last burst's address and the burst count. Read and Write are one
//     transfer's bursts; readTrain is count back-to-back Reads of n bytes at
//     addr, addr+n, ...
//
// Why train is exact: a transfer issues ceil(n/BurstBytes) bursts from its
// own (possibly unaligned) start, so burst start addresses rise by BurstBytes
// inside a transfer and, in a readTrain, by n-(ceil(n/BurstBytes)-1)*BurstBytes,
// which lies in (0, BurstBytes], between Reads. BurstBytes <= RowBytes
// (Timing.Validate), so the row of successive bursts never decreases and
// never skips: after the first burst (one access outcome) exactly
// row(last burst)-row(first burst) bursts open a new row, each a TRP+TRCD+TCL
// conflict because a row is open by then, and every other burst is a TCCD
// hit. The row that counts is the one the last burst starts in, not the one
// the transfer's last byte falls in: an unaligned tail can spill into a row
// no command opens. train counts the outcomes access would have produced;
// nothing is approximated.
//
// Both units stream their M weight rows as trains — LUTPIM always (the rows
// of a group batch are contiguous), SIMDPIM on the columns that interleave
// no output write — so a bank costs O(N*K/p) host work, not O(N*K/p*M).
//
// What is left per activation group is LUTPIM's two slice loads, and they
// neither divide by a slice length nor hash. Both slice lengths are fixed for
// a run, so their burst counts are computed once. The offsets are h % dCanon
// and (h>>7) % dReorder with h = idx*2654435761, and idx = n*groups+g0+j
// takes the values 0, 1, 2, ... in order across RunGEMMOn's three loops (a
// column's last batch may be narrower than the unit array; the next column
// still resumes at the next idx), so h grows by a constant: the first offset
// moves by 2654435761 mod dCanon and the second by (2654435761>>7) mod
// dReorder plus the carry out of h's low seven bits, each reduced by one
// conditional subtract (sliceOffsets; a test checks every step against the
// formula).
//
// # Multi-bank sharded execution
//
// A bank-level PIM system is thousands of independent banks, so the package
// also provides the sharded multi-bank layer: SplitGEMM partitions a GEMM
// over a channels x banks system, RunShards drives a unit simulator over
// every share on a worker pool (deduplicating identical shares, since an
// evenly divided GEMM gives every bank the same work), and Grid aggregates
// deterministically — wall-clock is the slowest bank, command counts sum in
// bank order. ForEachShard, the deterministic shard scheduler underneath,
// is shared with the gemm engine's full-grid mode.
package banksim
