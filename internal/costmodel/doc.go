// Package costmodel implements the first-order performance model of §IV-D:
// the slice-streaming time of Eq. 2 (in its byte-accurate form,
// StreamTimeBytes), the buffer-resident time of Eq. 4, and the optimal
// packing degree selection of Eq. 3. Choose makes the streaming-vs-buffer
// decision by comparing the two times directly; Eq. 6 restates that
// comparison as a break-even M and is pinned in the tests, not evaluated
// here. The host runs this model once per GEMM shape at initialization
// (§V-A) to pick the packing degree p*, the residence of the LUTs, and the
// slice batch k.
//
// The model owns only Eq. 2's profiled constants, L_D and L_local. The
// instruction split that refines L_local for streaming comes from
// kernels.DefaultCosts, and the LUT footprint a packing-degree search
// constrains is kernels.TableBytes, so the model prices the kernels'
// own table and their own budget check.
//
// Because a serving workload replays a handful of shapes across layers,
// batch members and bank shards, the package also provides Cache, a
// thread-safe memoization of the selection keyed by (model constants,
// format, shape, LUT byte budgets). The gemm engine consults it on every
// plan, so batched execution pays for each packing-degree search once.
package costmodel
