// Package workload generates the seeded synthetic matrices the evaluation
// runs on. The paper's artifact likewise uses generated data ("Generated
// datasets were used... the values of the generated elements remain within
// the representable range defined by the activation and weight bitwidths",
// Appendix C-4): execution time of every kernel is shape-determined, so
// Gaussian-distributed codes exercise the identical code paths as model
// tensors while staying reproducible from a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ais-snu/localut/internal/quant"
)

// Gaussian returns rows x cols standard-normal floats from the seed.
func Gaussian(rows, cols int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, rows*cols)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// QuantizedGaussian quantizes a Gaussian matrix under the codec with
// calibrated (distribution-aware) scaling. DNN weights and activations are
// near-Gaussian post-normalization, so this is the distribution the PQ
// error analysis and LUT column statistics see. A codec wider than the
// tensor's code storage, or a non-positive shape, is an error.
func QuantizedGaussian(rows, cols int, codec quant.Codec, seed int64) (*quant.Tensor, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("invalid shape %dx%d", rows, cols)
	}
	return quant.QuantizeCalibrated(Gaussian(rows, cols, seed), rows, cols, codec)
}

// GEMMPair bundles the quantized operands of one synthetic GEMM.
type GEMMPair struct {
	M, K, N int
	Fmt     quant.Format
	W       *quant.Tensor // M x K
	A       *quant.Tensor // K x N
}

// MakeGEMMPair generates a seeded W (M x K) and A (K x N) pair under the
// format's codecs. It is the one place a format meets tensor storage: a
// format that parses but whose codes do not fit (W9A9) is an error here.
func MakeGEMMPair(m, k, n int, f quant.Format, seed int64) (*GEMMPair, error) {
	w, err := QuantizedGaussian(m, k, f.Weight, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: %s weights: %w", f.Name(), err)
	}
	a, err := QuantizedGaussian(k, n, f.Act, seed+1)
	if err != nil {
		return nil, fmt.Errorf("workload: %s activations: %w", f.Name(), err)
	}
	return &GEMMPair{M: m, K: k, N: n, Fmt: f, W: w, A: a}, nil
}

// NewGEMMPair is MakeGEMMPair for shapes and formats fixed in code; it
// panics on an error. Anything taking a format from a flag or a caller
// uses MakeGEMMPair.
func NewGEMMPair(m, k, n int, f quant.Format, seed int64) *GEMMPair {
	p, err := MakeGEMMPair(m, k, n, f, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// FrobeniusError returns ||got-want||_F / ||want||_F over float matrices,
// the relative-error metric the accuracy proxy consumes.
func FrobeniusError(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
