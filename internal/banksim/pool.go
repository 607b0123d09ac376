package banksim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the multi-bank layer. ForEachShard is the deterministic
// shard scheduler the gemm engine and the experiment drivers run their
// tasks on; SplitGEMM maps a GEMM onto a channels x banks system, and
// SlowestShare prices that grid by its slowest bank.

// ForEachShard executes fn(task) for every task in [0, n) on a pool of
// workers. Shard s owns the strided task set {s, s+W, s+2W, ...} — a fixed,
// scheduling-independent assignment — and outcomes must be written to
// task-indexed slots by the caller, so successful results never depend on
// scheduling. Once any task fails, shards stop picking up new tasks and the
// lowest-indexed recorded error is returned; which failing task got recorded
// first may vary when several fail concurrently, but success vs failure
// never does. workers <= 1 (or n == 1) degenerates to a plain loop on the
// calling goroutine that stops at the first failure; workers <= 0 uses
// runtime.NumCPU().
func ForEachShard(n, workers int, fn func(task int) error) error {
	return ForEachShardArena(n, workers,
		func() struct{} { return struct{}{} },
		func(struct{}) {},
		func(_ struct{}, task int) error { return fn(task) })
}

// ForEachShardArena is ForEachShard with a per-worker execution arena: each
// worker acquires one context from get before its first task, threads it
// through every task it owns, and returns it to put when its strided task
// set is exhausted. Contexts hold reusable state (a simulated DPU, scratch
// buffers, a Bank state machine) so a worker that executes thousands of
// tasks allocates once; because the shard->task assignment and all outcome
// slots are fixed, recycling cannot perturb results. get/put must be safe
// for concurrent use; fn receives each context from exactly one goroutine
// at a time.
func ForEachShardArena[C any](n, workers int, get func() C, put func(C), fn func(ctx C, task int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ctx := get()
		defer put(ctx)
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			ctx := get()
			defer put(ctx)
			for i := shard; i < n; i += workers {
				if failed.Load() {
					return
				}
				if errs[i] = fn(ctx, i); errs[i] != nil {
					failed.Store(true)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Runner is any per-bank unit simulator (SIMDPIM, LUTPIM).
type Runner interface {
	RunGEMM(GEMMSpec) (*Result, error)
}

// SlowestShare simulates each distinct bank share in specs once, in bank
// order, and returns the largest Seconds: banks run concurrently on the PIM
// side, so the system's wall-clock is its slowest bank's. An evenly divided
// GEMM costs one simulation however many banks the system has, and a
// SplitGEMM grid at most four.
func SlowestShare(unit Runner, specs []GEMMSpec) (float64, error) {
	if len(specs) == 0 {
		return 0, fmt.Errorf("banksim: no bank shares to run")
	}
	var seen []GEMMSpec
	var slowest float64
	for i, g := range specs {
		if slices.Contains(seen, g) {
			continue
		}
		seen = append(seen, g)
		r, err := unit.RunGEMM(g)
		if err != nil {
			return 0, fmt.Errorf("banksim: bank %d: %w", i, err)
		}
		slowest = max(slowest, r.Seconds)
	}
	return slowest, nil
}

// SplitGEMM partitions an M x K x N GEMM over a channels x banks system the
// way the bank-level studies map it (M across channels, N across banks, full
// K per bank) and returns one share per bank in bank order. Remainders are
// spread one row/column at a time over the leading channels/banks, so at
// most four distinct share shapes exist and the largest equals the
// ceil-division share (the system's critical path).
func SplitGEMM(m, k, n, channels, banks int) ([]GEMMSpec, error) {
	if channels < 1 || banks < 1 {
		return nil, fmt.Errorf("banksim: bad system %dx%d", channels, banks)
	}
	if m < channels || n < banks {
		return nil, fmt.Errorf("banksim: GEMM %dx%dx%d smaller than the %dx%d system",
			m, k, n, channels, banks)
	}
	specs := make([]GEMMSpec, 0, channels*banks)
	for c := 0; c < channels; c++ {
		mc := m / channels
		if c < m%channels {
			mc++
		}
		for b := 0; b < banks; b++ {
			nb := n / banks
			if b < n%banks {
				nb++
			}
			specs = append(specs, GEMMSpec{M: mc, K: k, N: nb})
		}
	}
	return specs, nil
}
