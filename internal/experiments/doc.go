// Package experiments contains one driver per figure of the paper's
// evaluation (§III and §VI). Each driver regenerates the corresponding
// table/series — workload generation, parameter sweep, baselines and
// LoCaLUT — and reports headline aggregates next to the paper's published
// values so EXPERIMENTS.md can record paper-vs-measured for every figure.
//
// Every driver is deterministic (seeded workloads, shard-ordered
// aggregation), so Suite.All dispatches the independent drivers across a
// worker pool sized by Suite.Parallelism: each runs on a cloned suite whose
// engine shares the process-wide decision and LUT caches. The bank-level
// studies (Fig. 20/21) run their channel x bank grids through banksim's
// sharded multi-bank runner, and GEMMSweep drives the gemm engine's
// full-grid mode for localut-bench's -sweep/-compare commands. The serving
// sweeps are not drivers here: localut-serve and localut-cluster run them
// through the public facade, where every flag is honoured or refused.
package experiments
