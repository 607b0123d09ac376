package banksim

import (
	"fmt"
	"math/rand"
	"testing"
)

// access applies the timing for one column command on the byte address: a
// TCCD hit on the open row, TRCD+TCL on a precharged bank, TRP+TRCD+TCL on a
// row conflict. It is the per-burst reference the closed-form rule is pinned
// to, written out independently of it.
func (b *Bank) access(addr int64) {
	row := addr / b.T.RowBytes
	switch {
	case b.openRow == row:
		b.Cycles += b.T.TCCD
		b.RowHits++
	case b.openRow < 0:
		b.Cycles += b.T.TRCD + b.T.TCL
		b.openRow = row
		b.Activates++
	default:
		b.Cycles += b.T.TRP + b.T.TRCD + b.T.TCL
		b.openRow = row
		b.Activates++
	}
}

// refBank replays the per-burst reference semantics (one access per burst)
// against which the closed-form train must stay bit-identical.
type refBank struct{ b *Bank }

func (r refBank) read(addr, n int64) {
	for off := int64(0); off < n; off += r.b.T.BurstBytes {
		r.b.access(addr + off)
		r.b.Reads++
	}
}

func (r refBank) write(addr, n int64) {
	for off := int64(0); off < n; off += r.b.T.BurstBytes {
		r.b.access(addr + off)
		r.b.Writes++
	}
}

// TestStreamMatchesPerBurstReference drives fast and reference banks with
// identical random access sequences — unaligned addresses, row-crossing
// spans, interleaved reads and writes — and requires identical cycles and
// counters throughout.
func TestStreamMatchesPerBurstReference(t *testing.T) {
	for _, tm := range streamGeometries() {
		rng := rand.New(rand.NewSource(42))
		fast := NewBank(tm)
		ref := refBank{b: NewBank(tm)}
		for i := 0; i < 2000; i++ {
			addr := rng.Int63n(1 << 20)
			n := 1 + rng.Int63n(4*tm.RowBytes)
			if rng.Intn(2) == 0 {
				fast.Read(addr, n)
				ref.read(addr, n)
			} else {
				fast.Write(addr, n)
				ref.write(addr, n)
			}
			if *fast != *ref.b {
				t.Fatalf("step %d (addr=%d n=%d): fast %+v != ref %+v", i, addr, n, *fast, *ref.b)
			}
		}
	}
}

// TestStreamZeroLength checks the degenerate transfer is a no-op.
func TestStreamZeroLength(t *testing.T) {
	b := NewBank(HBM2())
	b.Read(128, 0)
	b.Write(128, 0)
	if b.Cycles != 0 || b.Reads != 0 || b.Writes != 0 {
		t.Fatalf("zero-length transfer charged: %+v", *b)
	}
}

// streamGeometries are the row/burst shapes FuzzBankStream draws from: the two
// shipped timings, a row that is not a power of two, and a row of one burst.
func streamGeometries() []Timing {
	odd, single := HBM2(), HBM2()
	odd.RowBytes, odd.BurstBytes = 96, 32
	single.RowBytes, single.BurstBytes = 64, 64
	return []Timing{HBM2(), DDR4(), odd, single}
}

// FuzzBankStream lets the fuzzer hunt for one Read or Write, from any
// row-buffer state, that the closed form prices differently from one access
// per burst. The seed corpus is committed under testdata/fuzz/FuzzBankStream.
func FuzzBankStream(f *testing.F) {
	geoms := streamGeometries()
	f.Fuzz(func(t *testing.T, geom, state uint8, addr, n int64, write bool) {
		tm := geoms[int(geom)%len(geoms)]
		c := trainCase{tm: tm, state: int(state % 3), addr: fold(addr) % (1 << 30), n: 1 + fold(n)%(4*tm.RowBytes)}
		fast, ref := c.startBank(), refBank{b: c.startBank()}
		if write {
			fast.Write(c.addr, c.n)
			ref.write(c.addr, c.n)
		} else {
			fast.Read(c.addr, c.n)
			ref.read(c.addr, c.n)
		}
		if *fast != *ref.b {
			t.Fatalf("%+v write=%v:\n fast  %+v\n burst %+v", c, write, *fast, *ref.b)
		}
	})
}

// TestSliceOffsetsMatchHash steps the slice walks through 2^20 consecutive
// activation groups and requires the hash formula's own value at each, under
// divisors small enough that every wrap lands on the divisor exactly many
// times, around the seven-bit boundary, and at the sizes Fig. 20 runs.
func TestSliceOffsetsMatchHash(t *testing.T) {
	steps := int64(1 << 20)
	if testing.Short() {
		steps = 1 << 16
	}
	for _, d := range [][2]int64{
		{1, 1}, {2, 3}, {3, 2}, {127, 128}, {128, 129}, {1000, 7},
		{sliceHash, sliceHash >> 7}, {sliceHash + 1, sliceHash>>7 + 1},
		{lutRegion - 256, reorderRegion - 256}, {lutRegion - 512, reorderRegion - 4096}, {lutRegion - 1, reorderRegion - 1},
	} {
		canonWalk := newSliceWalk(HBM2(), d[0], sliceHash%d[0], 0)
		reorderWalk := newSliceWalk(HBM2(), d[1], (sliceHash>>7)%d[1], 0)
		canon, reorder := canonWalk.start(0), reorderWalk.start(0)
		var low int64
		for idx := int64(0); idx < steps; idx++ {
			h := idx * sliceHash
			if canon.off != h%d[0] || reorder.off != (h>>7)%d[1] {
				t.Fatalf("divisors %v idx %d: stepped to (%d, %d), hash gives (%d, %d)",
					d, idx, canon.off, reorder.off, h%d[0], (h>>7)%d[1])
			}
			canon = canonWalk.next(canon, 0)
			low += sliceHash & 127
			reorder = reorderWalk.next(reorder, low>>7)
			low &= 127
		}
	}
}

// TestSliceCursorMatchesDivision steps both slice cursors through 2^20
// consecutive activation groups and requires the rows of each slice's first
// and last burst to be those the direct formula gives by division, on both
// shipped timings and a row that is not a power of two, from bases that are
// not row-aligned, with spans shorter and longer than a row.
func TestSliceCursorMatchesDivision(t *testing.T) {
	steps := int64(1 << 20)
	if testing.Short() {
		steps = 1 << 16
	}
	odd := HBM2()
	odd.RowBytes, odd.BurstBytes = 96, 32
	for _, tm := range []Timing{HBM2(), DDR4(), odd} {
		for _, c := range []struct{ base, canonCol, reorderCol int64 }{
			{base: 12345, canonCol: 256, reorderCol: 256},
			{base: 3*tm.RowBytes + tm.RowBytes/2 + 5, canonCol: 512, reorderCol: 20000},
			{base: tm.RowBytes - 1, canonCol: tm.RowBytes, reorderCol: 1},
		} {
			canonBase, reorderBase := c.base, c.base+lutRegion
			dCanon, dReorder := lutRegion-c.canonCol, reorderRegion-c.reorderCol
			canonSpan := (tm.bursts(c.canonCol) - 1) * tm.BurstBytes
			reorderSpan := (tm.bursts(c.reorderCol) - 1) * tm.BurstBytes
			canonWalk := newSliceWalk(tm, dCanon, sliceHash%dCanon, canonSpan)
			reorderWalk := newSliceWalk(tm, dReorder, (sliceHash>>7)%dReorder, reorderSpan)
			canon, reorder := canonWalk.start(canonBase), reorderWalk.start(reorderBase)
			var low int64
			for idx := int64(0); idx < steps; idx++ {
				h := idx * sliceHash
				ca, ra := canonBase+h%dCanon, reorderBase+(h>>7)%dReorder
				got := [4]int64{canon.row, canonWalk.last(canon), reorder.row, reorderWalk.last(reorder)}
				want := [4]int64{ca / tm.RowBytes, (ca + canonSpan) / tm.RowBytes,
					ra / tm.RowBytes, (ra + reorderSpan) / tm.RowBytes}
				if got != want {
					t.Fatalf("row %d B, %+v, idx %d: cursor rows (first, last) canon, reorder %v, division gives %v",
						tm.RowBytes, c, idx, got, want)
				}
				canon = canonWalk.next(canon, 0)
				low += sliceHash & 127
				reorder = reorderWalk.next(reorder, low>>7)
				low &= 127
			}
		}
	}
}

// BenchmarkLUTPIMShare runs one bank's share of Fig. 20's 4096 GEMM at the
// deepest and the shallowest packing the figure uses (both stream 256 B
// slices) and reports host time per slice Read, two per activation group.
func BenchmarkLUTPIMShare(b *testing.B) {
	g := GEMMSpec{M: 1024, K: 4096, N: 256}
	for _, p := range []int{8, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			u, err := NewLUTPIM(HBM2(), p, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := u.ConfigureSlices(256, 256); err != nil {
				b.Fatal(err)
			}
			bank := NewBank(u.T)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.RunGEMMOn(bank, g); err != nil {
					b.Fatal(err)
				}
			}
			slices := float64(b.N) * float64(2*g.N*(g.K/p))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/slices, "ns/slice")
		})
	}
}
