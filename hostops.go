package localut

import "github.com/ais-snu/localut/internal/hostops"

// The host-resident fp32 operators of the paper's execution split (Fig. 8):
// the PIM banks run the projection/FFN GEMMs while softmax, normalization,
// GELU and attention stay on the host. These wrappers let applications
// assemble a complete numeric transformer forward pass around GEMMQuantized
// (see Example_transformerForward).
//
// Each operator touches only the slices it is given, so callers may run
// them concurrently over disjoint tensors — e.g. layer-parallel host work
// alongside GEMMBatch on the simulated banks.

// Softmax applies a numerically-stable softmax over each row in place.
func Softmax(x []float64, rows, cols int) error { return hostops.Softmax(x, rows, cols) }

// LayerNorm normalizes each row to zero mean/unit variance with optional
// affine gamma/beta (nil for identity).
func LayerNorm(x []float64, rows, cols int, gamma, beta []float64) error {
	return hostops.LayerNorm(x, rows, cols, gamma, beta)
}

// GELU applies the tanh-approximation GELU in place.
func GELU(x []float64) { hostops.GELU(x) }

// AddInPlace accumulates b into a (residual connection).
func AddInPlace(a, b []float64) error { return hostops.AddInPlace(a, b) }

// Attention computes multi-head scaled dot-product attention for one
// sequence (q, k, v are tokens x hidden row-major).
func Attention(q, k, v []float64, tokens, hidden, heads int) ([]float64, error) {
	return hostops.Attention(q, k, v, tokens, hidden, heads)
}
