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
// matters. A column command is a TCCD hit on the open row, TRCD+TCL on a
// precharged bank, or TRP+TRCD+TCL on a row conflict. The package writes that
// rule once, as rowState.train, which prices a whole train of column commands
// in O(1) from the row its first burst starts in, the row its last burst
// starts in and the burst count. Tests replay one command per burst (access,
// in the test files) as the reference, and two fuzz targets pin the two
// against each other. Read and Write are one transfer's bursts; readTrain is
// count back-to-back Reads of n bytes at addr, addr+n, ...
//
// Why the rule is exact: a transfer issues ceil(n/BurstBytes) bursts from its
// own (possibly unaligned) start, so burst start addresses rise by BurstBytes
// inside a transfer and, in a readTrain, by n-(ceil(n/BurstBytes)-1)*BurstBytes,
// which lies in (0, BurstBytes], between Reads. BurstBytes <= RowBytes
// (Timing.Validate), so the row of successive bursts never decreases and
// never skips: after the first burst exactly row(last burst)-row(first burst)
// bursts open a new row, each a TRP+TRCD+TCL conflict because a row is open
// by then, and every other burst is a TCCD hit. The first burst adds one hit
// if its row is open, one conflict if another row is, and TRCD+TCL on a
// precharged bank. The row that counts is the one the last burst starts in,
// not the one the transfer's last byte falls in: an unaligned tail can spill
// into a row no command opens. The rule counts the outcomes per-burst access
// would have produced; nothing is approximated.
//
// Both units stream their M weight rows as trains — LUTPIM always (the rows
// of a group batch are contiguous), SIMDPIM on the columns that interleave
// no output write — so a bank costs O(N*K/p) host work, not O(N*K/p*M).
//
// What is left per activation group is LUTPIM's two slice loads, and they
// neither divide nor hash. The rule's state (open row, cycles, activates, row
// hits) is four words, so RunGEMMOn copies it into a local for each unit
// batch and writes it back after; inside the batch it stays in registers.
// Both slice lengths are fixed for a run, so their burst counts, and the
// distance span from a slice's first burst to its last, are computed once.
// The offsets are h % dCanon and (h>>7) % dReorder with h = idx*2654435761,
// and idx = n*groups+g0+j takes the values 0, 1, 2, ... in order across
// RunGEMMOn's three loops (a column's last batch may be narrower than the unit
// array; the next column still resumes at the next idx), so h grows by a
// constant: the first offset moves by 2654435761 mod dCanon and the second by
// (2654435761>>7) mod dReorder plus the carry out of h's low seven bits, each
// reduced by one conditional subtract.
//
// A slice cursor (sliceCursor, stepped by sliceWalk) carries, beside the
// offset, the row and in-row column of base+offset, so the rows the rule
// needs cost no division either. The step, the wrap by d and the span are
// each split once into whole rows and leftover bytes. Adding the leftover
// bytes of the step (plus h's carry) to a column below RowBytes leaves it
// below twice RowBytes, so at most one carry into the row fixes it;
// subtracting the leftover bytes of d on a wrap borrows at most one row; and
// the last burst's row is the first burst's plus the span's whole rows plus
// one exactly when the column reaches RowBytes minus the span's leftover
// bytes. The column's carry and borrow are taken with sign masks, because
// the in-row column is effectively random and a branch on it mispredicts;
// the wrap stays a branch with the offset's. Tests check every step of the
// offsets and of the rows against the division formulas.
//
// # Multi-bank execution
//
// A bank-level PIM system is thousands of independent banks. SplitGEMM
// partitions a GEMM over a channels x banks system, which gives at most four
// distinct share shapes, and SlowestShare simulates each distinct share once
// and returns the slowest bank's seconds: banks run concurrently, so that is
// the system's wall-clock. ForEachShard, the deterministic shard scheduler,
// lives here too and runs the gemm engine's full-grid mode and the figure
// drivers.
package banksim
