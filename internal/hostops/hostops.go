// Package hostops implements the host-resident fp32 operators of Fig. 8 —
// softmax, layer normalization, GELU, residual adds and multi-head
// attention — as real computations. The dnn package prices these with a
// flops model for timing; hostops supplies the arithmetic so an end-to-end
// transformer forward pass can run numerically through the simulated PIM
// GEMMs (see the root package's Example_transformerForward).
package hostops

import (
	"fmt"
	"math"
)

// Softmax applies a numerically-stable softmax over each row of a
// rows x cols matrix in place.
func Softmax(x []float64, rows, cols int) error {
	if len(x) != rows*cols {
		return fmt.Errorf("hostops: softmax shape %dx%d != len %d", rows, cols, len(x))
	}
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - max)
			row[i] = e
			sum += e
		}
		for i := range row {
			row[i] /= sum
		}
	}
	return nil
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies the affine gamma/beta parameters (pass nil for identity).
func LayerNorm(x []float64, rows, cols int, gamma, beta []float64) error {
	if len(x) != rows*cols {
		return fmt.Errorf("hostops: layernorm shape %dx%d != len %d", rows, cols, len(x))
	}
	if gamma != nil && len(gamma) != cols {
		return fmt.Errorf("hostops: gamma length %d != %d", len(gamma), cols)
	}
	if beta != nil && len(beta) != cols {
		return fmt.Errorf("hostops: beta length %d != %d", len(beta), cols)
	}
	const eps = 1e-5
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(cols)
		variance := 0.0
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float64(cols)
		inv := 1 / math.Sqrt(variance+eps)
		for i := range row {
			v := (row[i] - mean) * inv
			if gamma != nil {
				v *= gamma[i]
			}
			if beta != nil {
				v += beta[i]
			}
			row[i] = v
		}
	}
	return nil
}

// GELU applies the tanh-approximation GELU activation in place.
func GELU(x []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		x[i] = 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
	}
}

// AddInPlace accumulates b into a (residual connection).
func AddInPlace(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("hostops: residual lengths %d != %d", len(a), len(b))
	}
	for i := range a {
		a[i] += b[i]
	}
	return nil
}

// Attention computes standard multi-head scaled dot-product attention for
// one sequence: q, k, v are tokens x hidden row-major with hidden split
// into heads. Returns tokens x hidden.
func Attention(q, k, v []float64, tokens, hidden, heads int) ([]float64, error) {
	if hidden%heads != 0 {
		return nil, fmt.Errorf("hostops: hidden %d not divisible by %d heads", hidden, heads)
	}
	for _, m := range [][]float64{q, k, v} {
		if len(m) != tokens*hidden {
			return nil, fmt.Errorf("hostops: attention operand length %d != %d", len(m), tokens*hidden)
		}
	}
	dHead := hidden / heads
	invSqrt := 1 / math.Sqrt(float64(dHead))
	out := make([]float64, tokens*hidden)
	scores := make([]float64, tokens*tokens)
	for h := 0; h < heads; h++ {
		off := h * dHead
		for i := 0; i < tokens; i++ {
			for j := 0; j < tokens; j++ {
				s := 0.0
				for d := 0; d < dHead; d++ {
					s += q[i*hidden+off+d] * k[j*hidden+off+d]
				}
				scores[i*tokens+j] = s * invSqrt
			}
		}
		if err := Softmax(scores, tokens, tokens); err != nil {
			return nil, err
		}
		for i := 0; i < tokens; i++ {
			for d := 0; d < dHead; d++ {
				s := 0.0
				for j := 0; j < tokens; j++ {
					s += scores[i*tokens+j] * v[j*hidden+off+d]
				}
				out[i*hidden+off+d] = s
			}
		}
	}
	return out, nil
}
