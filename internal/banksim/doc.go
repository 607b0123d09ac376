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
// matters. Commands are charged at three granularities, each bit-identical
// to the one below it (tests pin all three against each other):
//
//   - access: one column command — a TCCD hit on the open row, TRCD+TCL on
//     a precharged bank, TRP+TRCD+TCL on a row conflict;
//   - stream (Read, Write): one sequential transfer in O(rows touched),
//     since only the first burst in a DRAM row can miss;
//   - readTrain: count back-to-back Reads of n bytes at addr, addr+n, ...
//     in O(1). Each Read issues ceil(n/BurstBytes) bursts from its own
//     (possibly unaligned) start, so burst start addresses rise by
//     BurstBytes inside a Read and by n-(ceil(n/BurstBytes)-1)*BurstBytes,
//     which lies in (0, BurstBytes], between Reads. BurstBytes <= RowBytes
//     (Timing.Validate), so the row of successive bursts never decreases
//     and never skips: after the first burst (one access outcome) exactly
//     row(last burst)-row(first burst) bursts open a new row, each a
//     TRP+TRCD+TCL conflict because a row is open by then, and every other
//     burst is a TCCD hit. The train counts the outcomes access would have
//     produced; nothing is approximated.
//
// Both units stream their M weight rows as trains — LUTPIM always (the rows
// of a group batch are contiguous), SIMDPIM on the columns that interleave
// no output write — so a bank costs O(N*K/p) host work, not O(N*K/p*M).
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
