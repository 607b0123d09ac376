package lut

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ais-snu/localut/internal/fp"
)

// binaryW decodes 1-bit weight codes to {-1, +1}.
func binaryW(code uint32) float64 {
	if code&1 == 0 {
		return -1
	}
	return 1
}

func TestFloatSpecValidation(t *testing.T) {
	dec := func(c uint32) float64 { return float64(c) }
	if _, err := NewFloatSpec(1, 4, 0, dec, dec); err == nil {
		t.Error("accepted p=0")
	}
	if _, err := NewFloatSpec(1, 4, 3, nil, dec); err == nil {
		t.Error("accepted nil decoder")
	}
	if _, err := NewFloatSpec(0, 4, 3, dec, dec); err == nil {
		t.Error("accepted 0-bit weights")
	}
	if _, err := NewFloatSpec(4, 4, 9, dec, dec); err == nil {
		t.Error("accepted 36-bit packed index")
	}
}

func TestFloatCanonicalPipelineFP4(t *testing.T) {
	f4 := fp.FP4{}
	s, err := NewFloatSpec(1, 4, 3, binaryW, f4.Decode)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := BuildCanonicalF32(s)
	if err != nil {
		t.Fatal(err)
	}
	reorder, err := BuildReorderF32(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		w := uint32(rng.Int63n(s.Rows()))
		acts := make([]int, s.P)
		for i := range acts {
			acts[i] = rng.Intn(16)
		}
		col, sigma, err := s.CanonicalizeActs(acts)
		if err != nil {
			t.Fatal(err)
		}
		wCanon := reorder.Lookup(w, sigma)
		got := canon.Lookup(wCanon, col)

		// Direct float32 dot in the canonical (sorted) order, matching the
		// device accumulation order.
		sorted := append([]int(nil), acts...)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		var want float32
		wCodes := wCanon
		for i := 0; i < s.P; i++ {
			wc := (wCodes >> uint(i)) & 1
			want += float32(binaryW(wc)) * float32(f4.Decode(uint32(sorted[i])))
		}
		if got != want {
			t.Fatalf("w=%b acts=%v: lut=%g direct=%g", w, acts, got, want)
		}
	}
}

// TestFloatReorderingNumericalStability backs Fig. 21(b)'s claim: reordering
// the accumulation produces negligible error versus the unsorted order.
func TestFloatReorderingNumericalStability(t *testing.T) {
	f4 := fp.FP4{}
	s, err := NewFloatSpec(1, 4, 4, binaryW, f4.Decode)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := BuildCanonicalF32(s)
	if err != nil {
		t.Fatal(err)
	}
	reorder, err := BuildReorderF32(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	maxRel := 0.0
	for trial := 0; trial < 2000; trial++ {
		w := uint32(rng.Int63n(s.Rows()))
		acts := make([]int, s.P)
		for i := range acts {
			acts[i] = rng.Intn(16)
		}
		col, sigma, _ := s.CanonicalizeActs(acts)
		got := float64(canon.Lookup(reorder.Lookup(w, sigma), col))

		var unsorted float32
		for i := 0; i < s.P; i++ {
			wc := (w >> uint(i)) & 1
			unsorted += float32(binaryW(wc)) * float32(f4.Decode(uint32(acts[i])))
		}
		diff := math.Abs(got - float64(unsorted))
		denom := math.Max(math.Abs(float64(unsorted)), 1)
		if rel := diff / denom; rel > maxRel {
			maxRel = rel
		}
	}
	// FP4 values are all exactly representable in float32 with tiny sums,
	// so reordering must be bit-exact here.
	if maxRel != 0 {
		t.Errorf("max relative reordering deviation %g, want 0 for FP4", maxRel)
	}
}

func TestFloatSpecCapacity(t *testing.T) {
	f8 := fp.FP8{}
	s, err := NewFloatSpec(1, 8, 2, binaryW, f8.Decode)
	if err != nil {
		t.Fatal(err)
	}
	// rows = 4, cols = C(256+1, 2) = 32896, 4 B entries.
	if s.Rows() != 4 {
		t.Errorf("rows = %d", s.Rows())
	}
	wantCols := int64(257 * 256 / 2)
	if s.CanonCols() != wantCols {
		t.Errorf("cols = %d, want %d", s.CanonCols(), wantCols)
	}
	if s.CanonicalBytes() != 4*wantCols*4 {
		t.Errorf("bytes = %d", s.CanonicalBytes())
	}
}

func TestFloatFP16DegeneratesToP1(t *testing.T) {
	// W1A16: at p=2 the canonical LUT exceeds any bank (C(65537,2) cols x 4B).
	f16 := fp.FP16{}
	s, err := NewFloatSpec(1, 16, 2, binaryW, f16.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if s.CanonicalBytes() < (64 << 20) {
		t.Errorf("W1A16 p=2 canonical = %d bytes, expected to exceed a 64 MB bank", s.CanonicalBytes())
	}
	s1, err := NewFloatSpec(1, 16, 1, binaryW, f16.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CanonicalBytes() > (1 << 20) {
		t.Errorf("W1A16 p=1 canonical = %d bytes, should be small", s1.CanonicalBytes())
	}
}

func TestReadF32RoundTrip(t *testing.T) {
	data := make([]byte, 8)
	for _, v := range []float32{0, -1.5, 3.25, float32(math.Inf(1))} {
		writeF32(data, 1, v)
		if got := readF32(data, 1); got != v {
			t.Errorf("wrote %g read %g", v, got)
		}
	}
}
