package banksim

import (
	"math/rand"
	"testing"
	"time"
)

// trainCase is one readTrain call from a chosen row-buffer state.
type trainCase struct {
	tm             Timing
	state          int // 0 precharged, 1 first burst's row open, 2 another row open
	addr, n, count int64
}

// startBank returns a bank in the case's row-buffer state with non-zero
// counters, so a fast path that overwrites instead of accumulating shows.
func (c trainCase) startBank() *Bank {
	b := &Bank{T: c.tm, openRow: -1, Cycles: 1000, Activates: 7, RowHits: 11, Reads: 13, Writes: 17}
	switch c.state {
	case 1:
		b.openRow = c.addr / c.tm.RowBytes
	case 2:
		b.openRow = c.addr/c.tm.RowBytes + 3
	}
	return b
}

// check runs the train three ways — readTrain, looped Read, per-burst
// refBank — and requires the whole Bank struct to agree.
func (c trainCase) check(t *testing.T) {
	t.Helper()
	fast, loop, ref := c.startBank(), c.startBank(), refBank{b: c.startBank()}
	fast.readTrain(c.addr, c.n, c.count)
	for i := int64(0); i < c.count; i++ {
		loop.Read(c.addr+i*c.n, c.n)
		ref.read(c.addr+i*c.n, c.n)
	}
	if *fast != *loop || *fast != *ref.b {
		t.Fatalf("%+v:\n train %+v\n loop  %+v\n burst %+v", c, *fast, *loop, *ref.b)
	}
}

// TestReadTrainMatchesReads pins the closed-form train to the looped Reads
// it replaces: random unaligned addresses, spans from one byte to four DRAM
// rows, trains up to 300 long, from every row-buffer start state.
func TestReadTrainMatchesReads(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for _, tm := range []Timing{HBM2(), DDR4()} {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < cases; i++ {
			c := trainCase{tm: tm, state: rng.Intn(3), addr: rng.Int63n(1 << 24)}
			// Mostly short spans and trains (where the row arithmetic has its
			// edge cases), with a heavy tail out to 4 rows x 300 reads.
			switch rng.Intn(4) {
			case 0:
				c.n = 1 + rng.Int63n(4*tm.RowBytes)
			case 1:
				c.n = tm.BurstBytes * (1 + rng.Int63n(4)) // burst-aligned
			default:
				c.n = 1 + rng.Int63n(3*tm.BurstBytes)
			}
			if rng.Intn(8) == 0 {
				c.count = 1 + rng.Int63n(300)
			} else {
				c.count = 1 + rng.Int63n(24)
			}
			c.check(t)
		}
	}
}

// TestReadTrainDegenerate checks empty trains are no-ops.
func TestReadTrainDegenerate(t *testing.T) {
	for _, c := range []trainCase{
		{tm: HBM2(), addr: 96, n: 0, count: 5},
		{tm: HBM2(), addr: 96, n: 64, count: 0},
		{tm: HBM2(), addr: 96, n: -1, count: 5},
	} {
		b := c.startBank()
		b.readTrain(c.addr, c.n, c.count)
		if *b != *c.startBank() {
			t.Errorf("%+v charged: %+v", c, *b)
		}
	}
}

// FuzzBankTrain lets the fuzzer hunt for a (state, addr, n, count) on which
// the closed form and the looped Reads disagree. The seed corpus is committed
// under testdata/fuzz/FuzzBankTrain.
func FuzzBankTrain(f *testing.F) {
	f.Fuzz(func(t *testing.T, ddr bool, state uint8, addr, n, count int64) {
		tm := HBM2()
		if ddr {
			tm = DDR4()
		}
		trainCase{
			tm: tm, state: int(state % 3),
			addr:  fold(addr) % (1 << 30),
			n:     1 + fold(n)%(4*tm.RowBytes),
			count: 1 + fold(count)%300,
		}.check(t)
	})
}

// fold maps any fuzzed int64, MinInt64 included, onto the non-negative ones.
func fold(v int64) int64 {
	if v < 0 {
		return -(v + 1)
	}
	return v
}

// loopSIMD is SIMDPIM.RunGEMMOn's command stream one access per burst: a read
// per weight row, a write on every (BurstBytes/2)-th column. It runs none of
// Read, Write, readTrain or train.
func loopSIMD(s *SIMDPIM, g GEMMSpec) *Result {
	b := refBank{b: NewBank(s.T)}
	const elemBytes = 2
	wBase := int64(0)
	aBase := int64(g.M) * int64(g.K) * elemBytes
	oBase := aBase + int64(g.K)*int64(g.N)*elemBytes
	for n := 0; n < g.N; n++ {
		b.read(aBase+int64(n)*int64(g.K)*elemBytes, int64(g.K)*elemBytes)
		for m := 0; m < g.M; m++ {
			b.read(wBase+int64(m)*int64(g.K)*elemBytes, int64(g.K)*elemBytes)
			if n%int(s.T.BurstBytes/elemBytes) == 0 {
				b.write(oBase+int64(m)*elemBytes, elemBytes)
			}
		}
	}
	return result(b.b, int64(g.M)*int64(g.K)*int64(g.N))
}

// loopLUT is LUTPIM.RunGEMMOn's command stream one access per burst, each
// slice offset from the hash formula itself: a read, a MAC increment and a
// compute increment per weight row.
func loopLUT(u *LUTPIM, g GEMMSpec) *Result {
	b := refBank{b: NewBank(u.T)}
	groups := (g.K + u.P - 1) / u.P
	wBase := int64(0)
	lutBase := int64(groups) * int64(g.M) * int64(u.WeightRowBytes)
	reorderBase := lutBase + lutRegion
	oBase := reorderBase + reorderRegion
	var macs, computeCycles int64
	for n := 0; n < g.N; n++ {
		for g0 := 0; g0 < groups; g0 += u.Units {
			batch := u.Units
			if g0+batch > groups {
				batch = groups - g0
			}
			for j := 0; j < batch; j++ {
				h := int64(n*groups+g0+j) * 2654435761
				b.read(lutBase+h%(lutRegion-u.CanonColBytes), u.CanonColBytes)
				b.read(reorderBase+(h>>7)%(reorderRegion-u.ReorderColBytes), u.ReorderColBytes)
			}
			b.read(oBase+int64(g.M)*2+int64(n*groups+g0)*4, int64(batch)*4)
			for m := 0; m < g.M; m++ {
				b.read(wBase+int64((g0/u.Units)*g.M+m)*int64(batch*u.WeightRowBytes),
					int64(batch*u.WeightRowBytes))
				macs += int64(batch) * int64(u.P)
				computeCycles += int64(float64(1) / u.LookupsPerCycle)
			}
		}
		b.write(oBase+int64(n)*int64(g.M)*2, int64(g.M)*2)
	}
	if computeCycles > b.b.Cycles {
		b.b.Cycles = computeCycles
	}
	return result(b.b, macs)
}

// TestRunGEMMMatchesLoopReference requires both unit simulators to report
// every Result field exactly as their per-burst loops do, on shapes that
// reach the ragged edges: a last group batch narrower than the unit array,
// single-row and single-column shares, K below the packing degree, a unit
// array whose lookups (not the command stream) set the cycle count, a reorder
// column longer than a DRAM row on either timing, and a share with more than
// 2^20 activation groups, whose slice offsets wrap their regions about a
// hundred thousand times — on both shipped timings and a 96 B row, which is
// not a power of two, so the slice cursors' carries land off any alignment.
func TestRunGEMMMatchesLoopReference(t *testing.T) {
	specs := []GEMMSpec{
		{M: 64, K: 200, N: 20}, // groups % Units != 0 at every p below
		{M: 1, K: 256, N: 33},
		{M: 37, K: 96, N: 1},
		{M: 5, K: 3, N: 17}, // K < P
		{M: 256, K: 1024, N: 48},
	}
	// 1366 groups or more per column at every p below: past 2^20 in all.
	manyGroups := GEMMSpec{M: 2, K: 8192, N: 800}
	type lutCfg struct {
		p, rowBytes, entryBytes int
		canon, reorder          int64
		units                   int
		lookups                 float64
		manyGroups              bool // slices short enough for the per-burst reference on that share
	}
	lutCfgs := []lutCfg{
		{p: 4, rowBytes: 1, entryBytes: 2, canon: 32, reorder: 16, units: 16, lookups: 0.5, manyGroups: true},
		{p: 6, rowBytes: 3, entryBytes: 1, canon: 64, reorder: 192, units: 16, lookups: 0.01, manyGroups: true}, // compute-bound
		{p: 8, rowBytes: 1, entryBytes: 2, canon: 512, reorder: 256, units: 16, lookups: 0.5},
		{p: 3, rowBytes: 2, entryBytes: 4, canon: 500, reorder: 4096, units: 5, lookups: 0.5},
		{p: 5, rowBytes: 1, entryBytes: 1, canon: 243, reorder: 20000, units: 7, lookups: 0.5}, // reorder > a DDR4 row
	}
	odd := HBM2()
	odd.RowBytes, odd.BurstBytes = 96, 32
	for _, tm := range []Timing{HBM2(), DDR4(), odd} {
		for _, g := range specs {
			simd := NewSIMDPIM(tm)
			got, err := simd.RunGEMM(g)
			if err != nil {
				t.Fatal(err)
			}
			if want := loopSIMD(simd, g); *got != *want {
				t.Errorf("SIMD %+v burst=%d:\n got  %+v\n want %+v", g, tm.BurstBytes, *got, *want)
			}
		}
		for _, c := range lutCfgs {
			u, err := NewLUTPIM(tm, c.p, c.rowBytes, c.entryBytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.ConfigureSlices(c.canon, c.reorder); err != nil {
				t.Fatal(err)
			}
			u.Units, u.LookupsPerCycle = c.units, c.lookups
			check := func(g GEMMSpec) {
				got, err := u.RunGEMM(g)
				if err != nil {
					t.Fatal(err)
				}
				if want := loopLUT(u, g); *got != *want {
					t.Errorf("LUT %+v %+v burst=%d:\n got  %+v\n want %+v", c, g, tm.BurstBytes, *got, *want)
				}
			}
			for _, g := range specs {
				check(g)
			}
			if c.manyGroups && !testing.Short() {
				check(manyGroups)
			}
		}
	}
}

// TestRunGEMMRejectsBadUnits covers the exported fields a caller can set past
// the constructors: each used to hang, divide by zero or report garbage.
func TestRunGEMMRejectsBadUnits(t *testing.T) {
	g := GEMMSpec{M: 8, K: 64, N: 2}
	for _, tc := range []struct {
		name string
		mut  func(*LUTPIM)
	}{
		{"units zero (used to spin forever)", func(u *LUTPIM) { u.Units = 0 }},
		{"units negative", func(u *LUTPIM) { u.Units = -4 }},
		{"lookups zero (used to report int64(+Inf) cycles)", func(u *LUTPIM) { u.LookupsPerCycle = 0 }},
		{"lookups negative", func(u *LUTPIM) { u.LookupsPerCycle = -0.5 }},
		{"reorder column fills its region (used to divide by zero)", func(u *LUTPIM) { u.ReorderColBytes = reorderRegion }},
		{"canonical column fills its region (used to divide by zero)", func(u *LUTPIM) { u.CanonColBytes = lutRegion }},
		{"packing degree zero", func(u *LUTPIM) { u.P = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := NewLUTPIM(HBM2(), 4, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.ConfigureSlices(32, 16); err != nil {
				t.Fatal(err)
			}
			tc.mut(u)
			// A hang would otherwise only surface as the package timeout.
			guard := time.AfterFunc(10*time.Second, func() { panic("RunGEMM did not return on " + tc.name) })
			defer guard.Stop()
			if res, err := u.RunGEMM(g); err == nil {
				t.Errorf("accepted: %+v", *res)
			}
		})
	}

	u, err := NewLUTPIM(HBM2(), 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ConfigureSlices(32, reorderRegion); err == nil {
		t.Error("ConfigureSlices accepted a reorder column as large as its region")
	}
	u.UnitBytes = 64 << 20
	if err := u.ConfigureSlices(lutRegion, 16); err == nil {
		t.Error("ConfigureSlices accepted a canonical column as large as its region")
	}

	narrow := HBM2()
	narrow.BurstBytes = 1
	if _, err := NewSIMDPIM(narrow).RunGEMM(g); err == nil {
		t.Error("SIMD accepted a burst narrower than an fp16 element")
	}
}
