package workload

import (
	"math"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/quant"
)

// TestArrivalReproducible mirrors TestGaussianReproducible for the arrival
// process: the serving simulator's determinism rests on it.
func TestArrivalReproducible(t *testing.T) {
	a, err := NewArrivalSampler(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewArrivalSampler(100, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different arrival gaps")
		}
	}
	c, _ := NewArrivalSampler(100, 8)
	same := true
	a2, _ := NewArrivalSampler(100, 7)
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrival streams")
	}
}

func TestArrivalMeanRate(t *testing.T) {
	s, err := NewArrivalSampler(250, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Next()
	}
	mean := sum / n
	if math.Abs(mean-1.0/250) > 0.05/250 {
		t.Errorf("mean inter-arrival %g, want ~%g", mean, 1.0/250)
	}
}

// TestArrivalRejectsBadRate: a rate that is not a positive finite number
// is an error from the one constructor all three traffic layers share. At
// +Inf every gap is zero, so an open loop re-armed at t = 0 forever; NaN
// passed every `rate <= 0` guard above it and produced NaN timestamps.
func TestArrivalRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -5, math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := NewArrivalSampler(rate, 1); err == nil || !strings.Contains(err.Error(), "arrival rate") {
			t.Errorf("rate %g: got %v, want an error naming the arrival rate", rate, err)
		}
		if _, err := NewMultiArrival([]float64{100, rate}, 1); err == nil || !strings.Contains(err.Error(), "class 1") {
			t.Errorf("class rate %g: got %v, want an error naming class 1", rate, err)
		}
	}
}

func TestLengthReproducible(t *testing.T) {
	a, err := NewLengthSampler(16, 256, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewLengthSampler(16, 256, 128, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different lengths")
		}
	}
	c, _ := NewLengthSampler(16, 256, 128, 8)
	same := true
	a2, _ := NewLengthSampler(16, 256, 128, 7)
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical length streams")
	}
}

func TestLengthBounded(t *testing.T) {
	s, err := NewLengthSampler(16, 256, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		n := s.Next()
		if n < 16 || n > 256 {
			t.Fatalf("sampled length %d outside [16, 256]", n)
		}
	}
}

// TestLengthRealizedMean pins the rounding fix: over 10k samples with a
// small mean-min scale and a far-away max (so clipping is negligible),
// the realized mean must sit within 2.5% of the requested mean. The old
// floor truncation biased every sample down ~half a token, landing the
// realized mean around 5.55 here — more than 7% low.
func TestLengthRealizedMean(t *testing.T) {
	const min, max, mean, n = 4, 1024, 6.0, 10000
	s, err := NewLengthSampler(min, max, mean, 11)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(s.Next())
	}
	realized := sum / n
	if math.Abs(realized-mean) > 0.025*mean {
		t.Errorf("realized mean %g drifted from requested %g (bound 2.5%%)", realized, mean)
	}
}

func TestLengthDegenerate(t *testing.T) {
	s, err := NewLengthSampler(64, 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if n := s.Next(); n != 64 {
			t.Fatalf("degenerate sampler returned %d, want 64", n)
		}
	}
}

func TestLengthRejectsBadBounds(t *testing.T) {
	cases := []struct {
		min, max int
		mean     float64
	}{
		{0, 10, 5}, {10, 5, 7}, {16, 256, 8}, {16, 256, 300},
	}
	for _, c := range cases {
		if _, err := NewLengthSampler(c.min, c.max, c.mean, 1); err == nil {
			t.Errorf("NewLengthSampler(%d, %d, %g) accepted", c.min, c.max, c.mean)
		}
	}
}

func TestShapePairCarriesNoData(t *testing.T) {
	p := NewShapePair(64, 32, 16, quant.W1A3)
	if p.W != nil || p.A != nil {
		t.Error("shape pair materialized operands")
	}
	if p.M != 64 || p.K != 32 || p.N != 16 {
		t.Errorf("shape pair dims %dx%dx%d", p.M, p.K, p.N)
	}
}
