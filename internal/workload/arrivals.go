package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ais-snu/localut/internal/quant"
)

// ArrivalSampler draws exponential inter-arrival gaps — the open-loop
// Poisson process serving evaluations offer at a fixed request rate. Like
// Gaussian, it is fully determined by its seed: the same (rate, seed) pair
// reproduces the same arrival stream bit for bit on every run and platform
// (math/rand's generator is pure Go).
type ArrivalSampler struct {
	rng  *rand.Rand
	rate float64
}

// NewArrivalSampler builds a Poisson arrival source with the given mean
// rate (requests per second), which must be positive and finite. Every
// traffic layer draws its gaps here — the open loop, each class of a
// MultiArrival and the closed loop's think times — so this is where a rate
// that would break them all is refused: at +Inf every gap is zero and the
// stream never leaves t = 0, and NaN fails every comparison a caller could
// have guarded with.
func NewArrivalSampler(ratePerSec float64, seed int64) (*ArrivalSampler, error) {
	if !(ratePerSec > 0) || math.IsInf(ratePerSec, 1) {
		return nil, fmt.Errorf("workload: arrival rate %g must be positive and finite", ratePerSec)
	}
	return &ArrivalSampler{rng: rand.New(rand.NewSource(seed)), rate: ratePerSec}, nil
}

// Next returns the gap in seconds until the next arrival.
func (a *ArrivalSampler) Next() float64 {
	return a.rng.ExpFloat64() / a.rate
}

// LengthSampler draws per-request sequence lengths from a bounded
// shifted-exponential distribution: lengths start at Min, decay with mean
// Mean, and clip at Max — the short-head/long-tail shape of real serving
// prompts, without unbounded outliers that would blow up batch shapes.
// Deterministic from its seed, like every sampler in this package.
type LengthSampler struct {
	rng      *rand.Rand
	min, max int
	mean     float64
}

// NewLengthSampler builds a sampler for lengths in [min, max] with the
// given target mean.
func NewLengthSampler(min, max int, mean float64, seed int64) (*LengthSampler, error) {
	switch {
	case min <= 0:
		return nil, fmt.Errorf("workload: min length %d must be positive", min)
	case max < min:
		return nil, fmt.Errorf("workload: length bounds [%d, %d] inverted", min, max)
	case mean < float64(min) || mean > float64(max):
		return nil, fmt.Errorf("workload: mean length %g outside [%d, %d]", mean, min, max)
	}
	return &LengthSampler{rng: rand.New(rand.NewSource(seed)), min: min, max: max, mean: mean}, nil
}

// Next returns one sampled sequence length. The exponential draw rounds
// to the nearest integer: floor-truncating it biases every sample down by
// half a token on average, which drags the realized mean measurably below
// the requested one when the mean-min scale is small.
func (l *LengthSampler) Next() int {
	if l.min == l.max {
		return l.min
	}
	n := l.min + int(math.Round(l.rng.ExpFloat64()*(l.mean-float64(l.min))))
	if n > l.max {
		n = l.max
	}
	return n
}

// NewShapePair describes an M x K x N GEMM in the format without
// materializing operands: W and A stay nil. Shape pairs are valid only for
// cycles-only execution, where no data flows through the kernels — the
// engine rejects them in functional mode. They let a serving simulator
// price millions of forward passes without generating a single synthetic
// tensor.
func NewShapePair(m, k, n int, f quant.Format) *GEMMPair {
	return &GEMMPair{M: m, K: k, N: n, Fmt: f}
}
