package banksim

import (
	"fmt"
	"sync"
	"testing"
)

func TestForEachShardDeterministicErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachShard(16, workers, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: got %v, want lowest-indexed error", workers, err)
		}
	}
}

func TestForEachShardCoversAllTasks(t *testing.T) {
	hit := make([]bool, 37)
	if err := ForEachShard(len(hit), 5, func(i int) error { hit[i] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("task %d never ran", i)
		}
	}
}

// TestSlowestShareIsCriticalPath checks that a ragged grid is priced by
// its ceil-division share, the system's critical path, and that an empty
// grid is an error.
func TestSlowestShareIsCriticalPath(t *testing.T) {
	unit := NewSIMDPIM(HBM2())
	specs, err := SplitGEMM(1000, 512, 130, 4, 16) // ragged on both axes
	if err != nil {
		t.Fatal(err)
	}
	got, err := SlowestShare(unit, specs)
	if err != nil {
		t.Fatal(err)
	}
	critical, err := unit.RunGEMM(GEMMSpec{M: 250, K: 512, N: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got != critical.Seconds {
		t.Fatalf("grid seconds %v != critical-path bank seconds %v", got, critical.Seconds)
	}
	if _, err := SlowestShare(unit, nil); err == nil {
		t.Fatal("empty share list accepted")
	}
}

func TestSplitGEMMCoversProblem(t *testing.T) {
	specs, err := SplitGEMM(1000, 16, 130, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 64 {
		t.Fatalf("got %d shares, want 64", len(specs))
	}
	// Sum M over one bank column and N over one channel row.
	mTot := 0
	for c := 0; c < 4; c++ {
		mTot += specs[c*16].M
	}
	nTot := 0
	for b := 0; b < 16; b++ {
		nTot += specs[b].N
	}
	if mTot != 1000 || nTot != 130 {
		t.Fatalf("shares cover %dx%d, want 1000x130", mTot, nTot)
	}
}

// TestForEachShardArenaContexts checks the per-worker context contract:
// every task sees exactly one context, each context is owned by one worker
// at a time, and all contexts are returned.
func TestForEachShardArenaContexts(t *testing.T) {
	const n, workers = 100, 7
	type ctx struct {
		id    int
		tasks []int
	}
	var mu sync.Mutex
	var made, returned int
	seen := make([]*ctx, 0, workers)
	err := ForEachShardArena(n, workers,
		func() *ctx {
			mu.Lock()
			defer mu.Unlock()
			c := &ctx{id: made}
			made++
			seen = append(seen, c)
			return c
		},
		func(c *ctx) {
			mu.Lock()
			returned++
			mu.Unlock()
		},
		func(c *ctx, task int) error {
			c.tasks = append(c.tasks, task) // un-synchronized: -race guards ownership
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if made != workers || returned != workers {
		t.Fatalf("made %d contexts, returned %d, want %d each", made, returned, workers)
	}
	covered := make([]bool, n)
	for _, c := range seen {
		for _, task := range c.tasks {
			if covered[task] {
				t.Fatalf("task %d ran twice", task)
			}
			covered[task] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("task %d never ran", i)
		}
	}
}

// TestRunGEMMOnMatchesRunGEMM pins bank reuse for both unit simulators: a
// recycled Bank produces bit-identical results to a fresh one, including
// when shares of different shapes alternate through it.
func TestRunGEMMOnMatchesRunGEMM(t *testing.T) {
	lutUnit, err := NewLUTPIM(HBM2(), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lutUnit.ConfigureSlices(256, 128); err != nil {
		t.Fatal(err)
	}
	type bankRunner interface {
		Runner
		RunGEMMOn(b *Bank, g GEMMSpec) (*Result, error)
	}
	units := []struct {
		name string
		r    bankRunner
	}{
		{"SIMDPIM", NewSIMDPIM(HBM2())},
		{"LUTPIM", lutUnit},
	}
	shapes := []GEMMSpec{{M: 16, K: 64, N: 8}, {M: 5, K: 33, N: 3}, {M: 16, K: 64, N: 8}}
	for _, u := range units {
		b := new(Bank)
		for i, g := range shapes {
			want, err := u.r.RunGEMM(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := u.r.RunGEMMOn(b, g)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("%s share %d: pooled bank diverges:\npooled %+v\nfresh  %+v", u.name, i, got, want)
			}
		}
	}
}
