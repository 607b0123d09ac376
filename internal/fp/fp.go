// Package fp implements the low-bit floating-point formats LoCaLUT's
// floating-point extension (§VI-K) treats as LUT symbols: FP4 (E2M1),
// FP8 (E4M3, the OCP/MX variant without infinities), and IEEE FP16.
//
// Because the LUT machinery only cares about the number of distinct codes —
// "the LUT entry count depends solely on input bitwidth rather than
// numerical format" — each format exposes the same Format interface:
// a bit width and a Decode from code to real value. LUT entries for float
// configs store float32 partial dot products of decoded symbol values.
package fp

import "math"

// Format describes a floating-point symbol encoding of Bits bits.
type Format interface {
	// Name returns the conventional format name, e.g. "FP4".
	Name() string
	// Bits returns the code width.
	Bits() int
	// Decode maps a code (low Bits bits) to its real value.
	Decode(code uint32) float64
	// Encode maps a real value to the nearest representable code.
	Encode(v float64) uint32
}

// FP4 is the E2M1 4-bit format: 1 sign, 2 exponent (bias 1), 1 mantissa bit.
// Representable magnitudes: 0, 0.5, 1, 1.5, 2, 3, 4, 6. No inf/NaN.
type FP4 struct{}

func (FP4) Name() string { return "FP4" }
func (FP4) Bits() int    { return 4 }

func (FP4) Decode(code uint32) float64 {
	code &= 0xF
	sign := 1.0
	if code&0x8 != 0 {
		sign = -1
	}
	exp := (code >> 1) & 0x3
	man := code & 0x1
	var mag float64
	if exp == 0 { // subnormal: 0 or 0.5
		mag = 0.5 * float64(man)
	} else {
		mag = (1 + 0.5*float64(man)) * math.Pow(2, float64(exp)-1)
	}
	return sign * mag
}

func (f FP4) Encode(v float64) uint32 { return encodeNearest(f, v) }

// FP8 is E4M3 in the OCP MX convention: 1 sign, 4 exponent (bias 7),
// 3 mantissa bits; the all-ones exponent with all-ones mantissa is NaN
// (we clamp to the max normal 448 instead of emitting NaN on Encode).
type FP8 struct{}

func (FP8) Name() string { return "FP8" }
func (FP8) Bits() int    { return 8 }

func (FP8) Decode(code uint32) float64 {
	code &= 0xFF
	sign := 1.0
	if code&0x80 != 0 {
		sign = -1
	}
	exp := (code >> 3) & 0xF
	man := code & 0x7
	if exp == 0xF && man == 0x7 {
		return math.NaN()
	}
	var mag float64
	if exp == 0 { // subnormal
		mag = float64(man) / 8 * math.Pow(2, -6)
	} else {
		mag = (1 + float64(man)/8) * math.Pow(2, float64(exp)-7)
	}
	return sign * mag
}

func (f FP8) Encode(v float64) uint32 { return encodeNearest(f, v) }

// FP16 is IEEE binary16: 1 sign, 5 exponent (bias 15), 10 mantissa bits.
type FP16 struct{}

func (FP16) Name() string { return "FP16" }
func (FP16) Bits() int    { return 16 }

func (FP16) Decode(code uint32) float64 {
	code &= 0xFFFF
	sign := 1.0
	if code&0x8000 != 0 {
		sign = -1
	}
	exp := (code >> 10) & 0x1F
	man := code & 0x3FF
	switch {
	case exp == 0x1F && man != 0:
		return math.NaN()
	case exp == 0x1F:
		return sign * math.Inf(1)
	case exp == 0:
		return sign * float64(man) / 1024 * math.Pow(2, -14)
	default:
		return sign * (1 + float64(man)/1024) * math.Pow(2, float64(exp)-15)
	}
}

// Encode converts to the nearest finite FP16 value (round-to-nearest-even
// via float32 truncation of the mantissa path would be more precise; for
// simulator symbol purposes nearest-value search over the magnitude bits is
// exact and fast enough for 16-bit spaces is NOT acceptable, so we convert
// analytically).
func (FP16) Encode(v float64) uint32 {
	if math.IsNaN(v) {
		return 0x7E00
	}
	sign := uint32(0)
	if math.Signbit(v) {
		sign = 0x8000
		v = -v
	}
	const maxFP16 = 65504
	if math.IsInf(v, 0) || v > maxFP16 {
		return sign | 0x7BFF // clamp to max finite
	}
	if v == 0 {
		return sign
	}
	exp := math.Floor(math.Log2(v))
	if exp < -14 { // subnormal
		man := uint32(math.Round(v / math.Pow(2, -14) * 1024))
		if man > 0x3FF {
			man = 0x3FF
		}
		return sign | man
	}
	man := math.Round((v/math.Pow(2, exp) - 1) * 1024)
	if man >= 1024 { // rounding overflowed the mantissa; bump exponent
		man = 0
		exp++
	}
	e := uint32(exp + 15)
	if e >= 0x1F {
		return sign | 0x7BFF
	}
	return sign | e<<10 | uint32(man)
}

// encodeNearest linearly scans the code space for the closest finite value.
// Only used for 4- and 8-bit formats where the scan is trivial.
func encodeNearest(f Format, v float64) uint32 {
	best := uint32(0)
	bestDist := math.Inf(1)
	n := uint32(1) << uint(f.Bits())
	for code := uint32(0); code < n; code++ {
		x := f.Decode(code)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		d := math.Abs(x - v)
		if d < bestDist || (d == bestDist && x >= 0 && v >= 0) {
			bestDist = d
			best = code
		}
	}
	return best
}
