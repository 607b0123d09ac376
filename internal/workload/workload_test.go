package workload

import (
	"math"
	"testing"

	"github.com/ais-snu/localut/internal/quant"
)

func TestGaussianReproducible(t *testing.T) {
	a := Gaussian(10, 10, 7)
	b := Gaussian(10, 10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := Gaussian(10, 10, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGaussianMoments(t *testing.T) {
	data := Gaussian(200, 200, 3)
	var sum, sq float64
	for _, v := range data {
		sum += v
		sq += v * v
	}
	n := float64(len(data))
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Errorf("mean=%g var=%g, want ~N(0,1)", mean, variance)
	}
}

func TestNewGEMMPairShapes(t *testing.T) {
	p := NewGEMMPair(8, 16, 4, quant.W2A2, 9)
	if p.W.Rows != 8 || p.W.Cols != 16 || p.A.Rows != 16 || p.A.Cols != 4 {
		t.Errorf("shapes: W %dx%d A %dx%d", p.W.Rows, p.W.Cols, p.A.Rows, p.A.Cols)
	}
	if p.W.Scale <= 0 || p.A.Scale <= 0 {
		t.Error("scales must be positive")
	}
}

func TestFrobeniusError(t *testing.T) {
	want := []float64{3, 4}
	if e := FrobeniusError([]float64{3, 4}, want); e != 0 {
		t.Errorf("identical: %g", e)
	}
	if e := FrobeniusError([]float64{0, 0}, want); math.Abs(e-1) > 1e-12 {
		t.Errorf("zero estimate: %g, want 1", e)
	}
	if e := FrobeniusError([]float64{1, 1}, []float64{0, 0}); !math.IsInf(e, 1) {
		t.Errorf("zero reference: %g, want +inf", e)
	}
	if e := FrobeniusError([]float64{0, 0}, []float64{0, 0}); e != 0 {
		t.Errorf("both zero: %g", e)
	}
}
