package lut

import (
	"fmt"
	"math"

	"github.com/ais-snu/localut/internal/perm"
	"github.com/ais-snu/localut/internal/quant"
)

// FloatSpec describes a floating-point LUT configuration (§VI-K): weights
// and activations are opaque symbol codes with arbitrary real decode
// functions, and LUT entries store float32 partial dot products. Since "the
// LUT entry count depends solely on input bitwidth rather than numerical
// format", all capacity laws reuse Spec's combinatorics through the embedded
// shape.
type FloatSpec struct {
	WeightBits int
	ActBits    int
	P          int
	DecodeW    func(code uint32) float64
	DecodeA    func(code uint32) float64
}

// NewFloatSpec validates the configuration.
func NewFloatSpec(bw, ba, p int, decW, decA func(uint32) float64) (FloatSpec, error) {
	if p < 1 || p > perm.MaxFactorialN {
		return FloatSpec{}, fmt.Errorf("lut: float packing degree %d out of range", p)
	}
	if bw < 1 || bw > 16 || ba < 1 || ba > 16 {
		return FloatSpec{}, fmt.Errorf("lut: float bit widths W%dA%d out of range", bw, ba)
	}
	if p*bw > 32 || p*ba > 32 {
		return FloatSpec{}, fmt.Errorf("lut: packed float index exceeds 32 bits")
	}
	if decW == nil || decA == nil {
		return FloatSpec{}, fmt.Errorf("lut: nil decode function")
	}
	return FloatSpec{WeightBits: bw, ActBits: ba, P: p, DecodeW: decW, DecodeA: decA}, nil
}

// Rows returns 2^(bw*p).
func (s FloatSpec) Rows() int64 { return int64(1) << uint(s.WeightBits*s.P) }

// CanonCols returns C(2^ba + p - 1, p).
func (s FloatSpec) CanonCols() int64 {
	return perm.MultisetCount(1<<uint(s.ActBits), s.P)
}

// EntryBytes is fixed at 4 (float32) for float LUTs.
func (s FloatSpec) EntryBytes() int { return 4 }

// CanonicalBytes returns the float canonical LUT size.
func (s FloatSpec) CanonicalBytes() int64 {
	return satMul3(s.Rows(), s.CanonCols(), int64(s.EntryBytes()))
}

// dot computes the float dot product of a packed weight row and activation
// codes, accumulating in float32 to mirror the device datapath.
func (s FloatSpec) dot(wPacked uint32, actCodes []int) float32 {
	var acc float32
	mask := uint32(1<<uint(s.WeightBits)) - 1
	for i := 0; i < s.P; i++ {
		wc := (wPacked >> (uint(i) * uint(s.WeightBits))) & mask
		acc += float32(s.DecodeW(wc)) * float32(s.DecodeA(uint32(actCodes[i])))
	}
	return acc
}

// CanonicalF32 is the float32-entry canonical LUT.
type CanonicalF32 struct {
	FloatSpec
	Data []byte // column-major float32 LE
}

// BuildCanonicalF32 materializes the float canonical LUT.
func BuildCanonicalF32(s FloatSpec) (*CanonicalF32, error) {
	size := s.CanonicalBytes()
	if size > MaxBuildBytes {
		return nil, fmt.Errorf("lut: float canonical LUT is %d bytes, exceeds build cap", size)
	}
	rows, cols := int(s.Rows()), int(s.CanonCols())
	t := &CanonicalF32{FloatSpec: s, Data: make([]byte, size)}
	alphabet := 1 << uint(s.ActBits)
	for c := 0; c < cols; c++ {
		actCodes := perm.MultisetUnrank(int64(c), alphabet, s.P)
		base := c * rows
		for r := 0; r < rows; r++ {
			writeF32(t.Data, base+r, s.dot(uint32(r), actCodes))
		}
	}
	return t, nil
}

// Lookup returns the float entry for canonical weight row w and column c.
func (t *CanonicalF32) Lookup(w uint32, c int64) float32 {
	return readF32(t.Data, int(c)*int(t.Rows())+int(w))
}

// BuildReorderF32 builds the reordering LUT for a float spec. The table is
// value-agnostic (it permutes codes), so it simply reuses the integer
// builder with a synthetic format of the right weight width.
func BuildReorderF32(s FloatSpec) (*Reorder, error) {
	f := quant.Format{
		Weight: quant.MustCodec(s.WeightBits, quant.Unsigned),
		Act:    quant.MustCodec(min16(s.ActBits), quant.Unsigned),
	}
	is, err := NewSpec(f, s.P)
	if err != nil {
		return nil, err
	}
	return BuildReorder(is)
}

func min16(b int) int {
	if b > 16 {
		return 16
	}
	return b
}

// CanonicalizeActs mirrors Spec.CanonicalizeActsScratch for float symbol
// codes: codes are sorted numerically (any fixed total order preserves the
// invariance; code order keeps sorting branch-free on device).
func (s FloatSpec) CanonicalizeActs(actCodes []int) (col int64, sigma int64, err error) {
	if len(actCodes) != s.P {
		return 0, 0, fmt.Errorf("lut: CanonicalizeActs: got %d codes, want p=%d", len(actCodes), s.P)
	}
	sorted, sp := perm.SortPerm(actCodes)
	col, err = perm.MultisetRank(sorted, 1<<uint(s.ActBits))
	if err != nil {
		return 0, 0, err
	}
	return col, perm.MustRank(sp), nil
}

func writeF32(data []byte, idx int, v float32) {
	bits := math.Float32bits(v)
	off := idx * 4
	data[off] = byte(bits)
	data[off+1] = byte(bits >> 8)
	data[off+2] = byte(bits >> 16)
	data[off+3] = byte(bits >> 24)
}

func readF32(data []byte, idx int) float32 {
	off := idx * 4
	bits := uint32(data[off]) | uint32(data[off+1])<<8 |
		uint32(data[off+2])<<16 | uint32(data[off+3])<<24
	return math.Float32frombits(bits)
}
