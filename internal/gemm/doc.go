// Package gemm orchestrates full GEMMs across the simulated PIM system: it
// picks the kernel configuration with the §IV-D cost model, tiles the
// matrices over the 2048 banks (data/context parallelism, §V-B), charges
// host-side quantize/sort/pack work and host<->PIM transfers, runs bank
// tiles on simulated DPUs, and verifies tile outputs against the integer
// reference — every timing run doubles as the "functionality check" of the
// paper's artifact.
//
// # Execution modes
//
// Every GEMM is priced the same way: from its grid's tile classes. Only the
// last row and the last column of a ceil-division grid can be narrower than
// the planned tile, so a grid has at most four classes — interior, right
// edge, bottom edge, corner — and each reads one cost record per distinct
// shape from the CostMemo. Device events and breakdown phases are each
// class's bank count × its record; kernel wall-clock is the sum over rounds
// of the slowest class in each round. Empty trailing grid positions hold
// no work and cost nothing. This is exact — it equals a bank-by-bank walk
// of the grid — and takes O(rows + rounds) time.
//
// ExecOptions.Mode selects whether anything runs beyond that price.
// kernels.CyclesOnly runs only the cost programs, on accounting DPUs: no
// byte work, no outputs, no verification. kernels.Functional additionally
// simulates data movement and lookups byte for byte on the verified banks,
// checks each one's output against the integer reference and its cycles,
// meter and breakdown against its class's cost record.
//
// ExecOptions.FullGrid sets only that verification scope:
//
//   - Default: bank (0,0) is verified. One tile of simulation per GEMM,
//     whatever the problem size — the right scope for figure sweeps and
//     model inference where thousands of GEMMs run back to back.
//
//   - Full grid: every non-empty bank tile is simulated and verified
//     bit-exact, and the full integer product is assembled from the banks.
//
// Reports are identical in both scopes and, up to Verified and Output, in
// both modes. So a cycles-only Run of a shape-only pair is the plan of that
// GEMM, and localut.System.ChoosePlan is exactly that: no second planner.

// # Sharded host parallelism
//
// Bank tiles are mutually independent (the defining property of bank-level
// PIM), so full-grid verification is sharded across a worker pool of
// ExecOptions.Parallelism goroutines. Determinism is preserved by
// construction, not by locking discipline:
//
//   - shard s owns the strided bank set {s, s+W, s+2W, ...} — a fixed,
//     scheduling-independent assignment;
//   - each bank simulates on its worker's own DPU and writes only its own
//     window of the assembled product;
//   - the price never depends on the pool: it is computed from the class
//     records in exact integer arithmetic.
//
// Reports are therefore bit-identical at any parallelism level; only host
// wall-clock changes. RunBatch extends the same pool across independent
// GEMMs. §IV-D decisions are memoized in the engine's costmodel.Cache and
// tile cost records in its CostMemo; engine clones share both, each behind
// one mutex.
package gemm
