package lut

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ais-snu/localut/internal/perm"
	"github.com/ais-snu/localut/internal/quant"
)

func TestSpecValidation(t *testing.T) {
	if _, err := NewSpec(quant.W1A3, 0); err == nil {
		t.Error("accepted p=0")
	}
	if _, err := NewSpec(quant.W4A4, 9); err == nil {
		t.Error("accepted 36-bit packed index")
	}
	if _, err := NewSpec(quant.W1A3, 8); err != nil {
		t.Errorf("rejected valid W1A3 p=8: %v", err)
	}
}

func TestSpecShapes(t *testing.T) {
	s := MustSpec(quant.W1A3, 3)
	if s.Rows() != 8 {
		t.Errorf("Rows = %d", s.Rows())
	}
	if s.OpCols() != 512 {
		t.Errorf("OpCols = %d", s.OpCols())
	}
	if s.CanonCols() != perm.MultisetCount(8, 3) {
		t.Errorf("CanonCols = %d", s.CanonCols())
	}
	if s.ReorderCols() != 6 {
		t.Errorf("ReorderCols = %d", s.ReorderCols())
	}
}

func TestEntryBytesDynamicSizing(t *testing.T) {
	// W1A3: |dot| <= 4p, 1 byte up to p=31.
	if got := MustSpec(quant.W1A3, 8).EntryBytes(); got != 1 {
		t.Errorf("W1A3 p=8 entry bytes = %d, want 1", got)
	}
	// W4A4 (symmetric-clipped weights): |dot| <= 56p -> p=2 gives 112,
	// still 1 byte — which is what lets the p=2 canonical table (34.8 KB)
	// stay buffer-resident as Fig. 18(a) requires; p=3 gives 168 -> 2 bytes.
	if got := MustSpec(quant.W4A4, 2).EntryBytes(); got != 1 {
		t.Errorf("W4A4 p=2 entry bytes = %d, want 1", got)
	}
	if got := MustSpec(quant.W4A4, 3).EntryBytes(); got != 2 {
		t.Errorf("W4A4 p=3 entry bytes = %d, want 2", got)
	}
}

func TestPaperCapacityNumbers(t *testing.T) {
	// §IV-A quotes (with the documented ba typo corrected to W1A3): LUT
	// column reduction 12.4x at p=4 and 611.1x at p=7.
	s4 := MustSpec(quant.W1A3, 4)
	ratio4 := float64(s4.OpCols()) / float64(s4.CanonCols())
	if math.Abs(ratio4-12.412) > 0.01 {
		t.Errorf("p=4 column reduction = %.3f, want ~12.41", ratio4)
	}
	s7 := MustSpec(quant.W1A3, 7)
	ratio7 := float64(s7.OpCols()) / float64(s7.CanonCols())
	if math.Abs(ratio7-611.06) > 0.5 {
		t.Errorf("p=7 column reduction = %.2f, want ~611.1", ratio7)
	}
	// §IV-B / Fig. 6: total reduction (OP vs canonical+reordering) spans
	// 1.68x at p=2 to ~359x at p=8 for W1A3.
	r2 := MustSpec(quant.W1A3, 2).ReductionRate()
	if math.Abs(r2-1.684) > 0.01 {
		t.Errorf("p=2 total reduction = %.3f, want ~1.68", r2)
	}
	r8 := MustSpec(quant.W1A3, 8).ReductionRate()
	if math.Abs(r8-358.8) > 1.0 {
		t.Errorf("p=8 total reduction = %.1f, want ~358", r8)
	}
}

func TestUPMEMPackingDegrees(t *testing.T) {
	// §V-A: with half of a 64 MB bank for LUTs, p_DRAM = 8 for W1A3 with
	// canonicalization, 6 without; with half of the 64 KB WRAM, p_local = 5
	// with canonicalization, 3 without.
	bankBudget := int64(32 << 20)
	bufBudget := int64(32 << 10)

	maxP := func(budget int64, combined bool) int {
		best := 0
		for p := 1; p <= 10; p++ {
			s, err := NewSpec(quant.W1A3, p)
			if err != nil {
				break
			}
			var size int64
			if combined {
				size = s.CombinedBytes()
			} else {
				size = s.OpPackedBytes()
			}
			if size <= budget {
				best = p
			}
		}
		return best
	}
	if got := maxP(bankBudget, true); got != 8 {
		t.Errorf("p_DRAM with canonicalization = %d, want 8", got)
	}
	if got := maxP(bankBudget, false); got != 6 {
		t.Errorf("p_DRAM without canonicalization = %d, want 6", got)
	}
	if got := maxP(bufBudget, true); got != 5 {
		t.Errorf("p_local with canonicalization = %d, want 5", got)
	}
	if got := maxP(bufBudget, false); got != 3 {
		t.Errorf("p_local without canonicalization = %d, want 3", got)
	}
}

func TestOpPackedAgainstDirectDot(t *testing.T) {
	for _, f := range []quant.Format{quant.W1A3, quant.W2A2, quant.W4A4} {
		for p := 1; p <= 3; p++ {
			s := MustSpec(f, p)
			if s.OpPackedBytes() > 1<<22 {
				continue
			}
			tbl, err := BuildOpPacked(s)
			if err != nil {
				t.Fatal(err)
			}
			// Exhaustive over all (w, a).
			for w := int64(0); w < s.Rows(); w++ {
				for a := int64(0); a < s.OpCols(); a++ {
					want := directDot(s, uint32(w), uint32(a))
					if got := tbl.Lookup(uint32(w), uint32(a)); got != want {
						t.Fatalf("%s: Lookup(%d,%d) = %d, want %d", s, w, a, got, want)
					}
				}
			}
		}
	}
}

func directDot(s Spec, w, a uint32) int32 {
	var acc int32
	for i := 0; i < s.P; i++ {
		wc := (w >> (uint(i) * uint(s.Fmt.Weight.Bits))) & s.Fmt.Weight.Mask()
		ac := (a >> (uint(i) * uint(s.Fmt.Act.Bits))) & s.Fmt.Act.Mask()
		acc += s.Fmt.Weight.Decode(wc) * s.Fmt.Act.Decode(ac)
	}
	return acc
}

// TestCanonicalPipelineExact is the core correctness theorem of the paper:
// reordering the weights by the activation sort permutation and looking up
// the canonical LUT reproduces the exact packed dot product for every input.
func TestCanonicalPipelineExact(t *testing.T) {
	for _, tc := range []struct {
		f quant.Format
		p int
	}{
		{quant.W1A3, 3}, {quant.W1A3, 4}, {quant.W2A2, 3}, {quant.W4A4, 2}, {quant.W1A4, 3},
	} {
		s := MustSpec(tc.f, tc.p)
		canon, err := BuildCanonical(s)
		if err != nil {
			t.Fatal(err)
		}
		reorder, err := BuildReorder(s)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		aBits := tc.f.Act.Bits
		sorted, sp := make([]int, tc.p), make([]int, tc.p)
		for trial := 0; trial < 2000; trial++ {
			w := uint32(rng.Int63n(s.Rows()))
			actCodes := make([]int, tc.p)
			for i := range actCodes {
				actCodes[i] = rng.Intn(1 << aBits)
			}
			col, sigma, err := s.CanonicalizeActsScratch(actCodes, sorted, sp)
			if err != nil {
				t.Fatal(err)
			}
			wCanon := reorder.Lookup(w, sigma)
			got := canon.Lookup(wCanon, col)
			want := s.dotPacked(w, actCodes)
			if got != want {
				t.Fatalf("%s: w=%b acts=%v: canonical pipeline = %d, direct = %d",
					s, w, actCodes, got, want)
			}
		}
	}
}

// TestPermutationInvariance verifies the redundancy the canonical LUT
// removes: jointly permuting weights and activations leaves the OP LUT
// entry unchanged.
func TestPermutationInvariance(t *testing.T) {
	s := MustSpec(quant.W1A3, 3)
	tbl, err := BuildOpPacked(s)
	if err != nil {
		t.Fatal(err)
	}
	f := func(wRaw uint16, aRaw uint32, permSeed uint8) bool {
		w := uint32(wRaw) % uint32(s.Rows())
		a := aRaw % uint32(s.OpCols())
		sigma := perm.Unrank(int64(permSeed)%perm.Factorial(s.P), s.P)
		wCodes := quant.UnpackVector(w, 1, s.P)
		aCodes := quant.UnpackVector(a, 3, s.P)
		wPerm := make([]uint32, s.P)
		aPerm := make([]uint32, s.P)
		for i, idx := range sigma {
			wPerm[i] = wCodes[idx]
			aPerm[i] = aCodes[idx]
		}
		return tbl.Lookup(w, a) ==
			tbl.Lookup(quant.PackVector(wPerm, 1), quant.PackVector(aPerm, 3))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFig2Example(t *testing.T) {
	// Fig. 2: weights [0 0 1] (1-bit), activations [3 0 2] (3-bit),
	// result 0*3 + 0*0 + 1*2 = 2 under the paper's {0,1}-valued weights.
	// Our default W1 codec is {-1,+1}; use an Unsigned weight codec to
	// match the figure literally.
	f := quant.Format{
		Weight: quant.MustCodec(1, quant.Unsigned),
		Act:    quant.MustCodec(3, quant.Twos),
	}
	s := MustSpec(f, 3)
	tbl, err := BuildOpPacked(s)
	if err != nil {
		t.Fatal(err)
	}
	w := quant.PackVector([]uint32{0, 0, 1}, 1)
	a := quant.PackVector([]uint32{3, 0, 2}, 3)
	if got := tbl.Lookup(w, a); got != 2 {
		t.Errorf("Fig.2 example = %d, want 2", got)
	}

	// And the canonicalized path of Fig. 4(a): activations sort to [0 2 3],
	// weights reorder to [0 1 0], same result.
	canon, err := BuildCanonical(s)
	if err != nil {
		t.Fatal(err)
	}
	reorder, err := BuildReorder(s)
	if err != nil {
		t.Fatal(err)
	}
	col, sigma, err := s.CanonicalizeActsScratch([]int{3, 0, 2}, make([]int, 3), make([]int, 3))
	if err != nil {
		t.Fatal(err)
	}
	wCanon := reorder.Lookup(w, sigma)
	if wCanon != quant.PackVector([]uint32{0, 1, 0}, 1) {
		t.Errorf("reordered weights = %03b, want 010", wCanon)
	}
	if got := canon.Lookup(wCanon, col); got != 2 {
		t.Errorf("canonical lookup = %d, want 2", got)
	}
}

// TestColumnSlices pins the column-major layout slice streaming relies on:
// column c of each table is one contiguous byte range holding exactly the
// entries Lookup returns for that column.
func TestColumnSlices(t *testing.T) {
	s := MustSpec(quant.W1A3, 3)
	canon, err := BuildCanonical(s)
	if err != nil {
		t.Fatal(err)
	}
	stride := int(s.Rows()) * s.EntryBytes()
	if len(canon.Data) != int(s.CanonCols())*stride {
		t.Fatalf("canonical table has %d bytes, want %d columns of %d", len(canon.Data), s.CanonCols(), stride)
	}
	for c := int64(0); c < s.CanonCols(); c++ {
		col := canon.Data[int(c)*stride : int(c+1)*stride]
		for r := int64(0); r < s.Rows(); r++ {
			if ReadEntry(col, int(r), s.EntryBytes()) != canon.Lookup(uint32(r), c) {
				t.Fatalf("column slice mismatch at (%d,%d)", r, c)
			}
		}
	}
	reorder, err := BuildReorder(s)
	if err != nil {
		t.Fatal(err)
	}
	stride = int(s.Rows()) * s.WeightRowBytes()
	for sg := int64(0); sg < s.ReorderCols(); sg++ {
		col := reorder.Data[int(sg)*stride : int(sg+1)*stride]
		for r := int64(0); r < s.Rows(); r++ {
			if ReadUint(col, int(r), s.WeightRowBytes()) != reorder.Lookup(uint32(r), sg) {
				t.Fatalf("reorder slice mismatch at (%d,%d)", r, sg)
			}
		}
	}
}

func TestBuildRejectsOversize(t *testing.T) {
	// W4A4 p=8 would need 2^64 entries: all builders must refuse.
	s := Spec{Fmt: quant.W4A4, P: 8}
	if _, err := BuildOpPacked(s); err == nil {
		t.Error("BuildOpPacked accepted an enormous spec")
	}
	if _, err := BuildCanonical(s); err == nil {
		t.Error("BuildCanonical accepted an enormous spec")
	}
	if _, err := BuildReorder(Spec{Fmt: quant.W1A3, P: 14}); err == nil {
		t.Error("BuildReorder accepted p=14 (14! columns)")
	}
}

func TestEntryReadWriteRoundTrip(t *testing.T) {
	data := make([]byte, 16)
	for _, tc := range []struct {
		width int
		vals  []int32
	}{
		{1, []int32{-128, -1, 0, 1, 127}},
		{2, []int32{-32768, -300, 0, 300, 32767}},
		{4, []int32{math.MinInt32, -70000, 0, 70000, math.MaxInt32}},
	} {
		for _, v := range tc.vals {
			WriteEntry(data, 1, tc.width, v)
			if got := ReadEntry(data, 1, tc.width); got != v {
				t.Errorf("width %d: wrote %d read %d", tc.width, v, got)
			}
		}
	}
	for _, tc := range []struct {
		width int
		vals  []uint32
	}{
		{1, []uint32{0, 200, 255}},
		{2, []uint32{0, 40000, 65535}},
		{4, []uint32{0, 1 << 30, math.MaxUint32}},
	} {
		for _, v := range tc.vals {
			WriteUint(data, 2, tc.width, v)
			if got := ReadUint(data, 2, tc.width); got != v {
				t.Errorf("uint width %d: wrote %d read %d", tc.width, v, got)
			}
		}
	}
}

func TestWriteEntryOverflowPanics(t *testing.T) {
	data := make([]byte, 8)
	for _, tc := range []struct {
		width int
		v     int32
	}{{1, 128}, {1, -129}, {2, 40000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WriteEntry(width=%d, v=%d) did not panic", tc.width, tc.v)
				}
			}()
			WriteEntry(data, 0, tc.width, tc.v)
		}()
	}
}

func TestCanonicalizeActsValidation(t *testing.T) {
	s := MustSpec(quant.W1A3, 3)
	sorted, sp := make([]int, 3), make([]int, 3)
	if _, _, err := s.CanonicalizeActsScratch([]int{1, 2}, sorted, sp); err == nil {
		t.Error("accepted wrong length")
	}
	if _, _, err := s.CanonicalizeActsScratch([]int{1, 2, 9}, sorted, sp); err == nil {
		t.Error("accepted out-of-alphabet code")
	}
}

func TestSliceBytes(t *testing.T) {
	s := MustSpec(quant.W1A3, 8)
	// 256 rows x (1B entry + 1B packed weight) = 512 B per slice pair.
	if got := s.SliceBytes(); got != 512 {
		t.Errorf("SliceBytes = %d, want 512", got)
	}
}

func BenchmarkBuildCanonicalW1A3P5(b *testing.B) {
	s := MustSpec(quant.W1A3, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCanonical(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalLookup(b *testing.B) {
	s := MustSpec(quant.W1A3, 5)
	canon, err := BuildCanonical(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += canon.Lookup(uint32(i)&31, int64(i)%s.CanonCols())
	}
	_ = sink
}
