package localut_test

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ais-snu/localut"
)

// The encoder layer Example_transformerForward runs.
const (
	tokens = 32
	hidden = 128
	ffn    = 512
	heads  = 4
)

// layer holds the float weights of one encoder layer.
type layer struct {
	wq, wk, wv, wo []float64 // hidden x hidden
	w1             []float64 // ffn x hidden
	w2             []float64 // hidden x ffn
}

func randMat(rng *rand.Rand, rows, cols int) []float64 {
	m := make([]float64, rows*cols)
	for i := range m {
		m[i] = rng.NormFloat64() / math.Sqrt(float64(cols))
	}
	return m
}

// gemmFn multiplies W (m x k) by in^T columns; in is tokens x k row-major,
// output tokens x m row-major.
type gemmFn func(w, in []float64, m, k, n int) ([]float64, error)

// pimGEMM quantizes operands, runs the LoCaLUT design on the simulated
// system and dequantizes. Activations arrive tokens x k; the engine wants
// k x tokens.
func pimGEMM(sys *localut.System, f localut.Format, w, in []float64, m, k, n int) ([]float64, float64, error) {
	wq, err := localut.Quantize(w, m, k, f, localut.Weights)
	if err != nil {
		return nil, 0, err
	}
	at := make([]float64, k*n)
	for t := 0; t < n; t++ {
		for kk := 0; kk < k; kk++ {
			at[kk*n+t] = in[t*k+kk]
		}
	}
	aq, err := localut.Quantize(at, k, n, f, localut.Activations)
	if err != nil {
		return nil, 0, err
	}
	res, err := sys.GEMMQuantized(wq, aq, localut.DesignLoCaLUT, localut.WithFullOutput())
	if err != nil {
		return nil, 0, err
	}
	if !res.Verified {
		return nil, 0, fmt.Errorf("PIM kernel verification failed")
	}
	scale := wq.Scale() * aq.Scale()
	out := make([]float64, n*m)
	for mi := 0; mi < m; mi++ {
		for t := 0; t < n; t++ {
			out[t*m+mi] = float64(res.Output[mi*n+t]) * scale
		}
	}
	return out, res.KernelSeconds, nil
}

// floatGEMM is the host float reference of the same contraction.
func floatGEMM(w, in []float64, m, k, n int) ([]float64, error) {
	out := make([]float64, n*m)
	for t := 0; t < n; t++ {
		for mi := 0; mi < m; mi++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += w[mi*k+kk] * in[t*k+kk]
			}
			out[t*m+mi] = s
		}
	}
	return out, nil
}

// forward runs the encoder layer; gemm == nil selects the float reference.
func forward(l *layer, x []float64, gemm gemmFn) ([]float64, error) {
	if gemm == nil {
		gemm = floatGEMM
	}
	h := append([]float64(nil), x...)
	if err := localut.LayerNorm(h, tokens, hidden, nil, nil); err != nil {
		return nil, err
	}
	q, err := gemm(l.wq, h, hidden, hidden, tokens)
	if err != nil {
		return nil, err
	}
	k, err := gemm(l.wk, h, hidden, hidden, tokens)
	if err != nil {
		return nil, err
	}
	v, err := gemm(l.wv, h, hidden, hidden, tokens)
	if err != nil {
		return nil, err
	}
	attn, err := localut.Attention(q, k, v, tokens, hidden, heads)
	if err != nil {
		return nil, err
	}
	proj, err := gemm(l.wo, attn, hidden, hidden, tokens)
	if err != nil {
		return nil, err
	}
	if err := localut.AddInPlace(proj, x); err != nil {
		return nil, err
	}

	h2 := append([]float64(nil), proj...)
	if err := localut.LayerNorm(h2, tokens, hidden, nil, nil); err != nil {
		return nil, err
	}
	mid, err := gemm(l.w1, h2, ffn, hidden, tokens)
	if err != nil {
		return nil, err
	}
	localut.GELU(mid)
	out, err := gemm(l.w2, mid, hidden, ffn, tokens)
	if err != nil {
		return nil, err
	}
	if err := localut.AddInPlace(out, proj); err != nil {
		return nil, err
	}
	return out, nil
}
