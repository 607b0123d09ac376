package fp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFP4Values(t *testing.T) {
	f := FP4{}
	// All positive magnitudes of E2M1.
	want := map[uint32]float64{
		0b0000: 0, 0b0001: 0.5, 0b0010: 1, 0b0011: 1.5,
		0b0100: 2, 0b0101: 3, 0b0110: 4, 0b0111: 6,
	}
	for code, w := range want {
		if got := f.Decode(code); got != w {
			t.Errorf("Decode(%04b) = %g, want %g", code, got, w)
		}
		if got := f.Decode(code | 0x8); got != -w {
			t.Errorf("Decode(%04b) = %g, want %g", code|0x8, got, -w)
		}
	}
}

func TestFP8Values(t *testing.T) {
	f := FP8{}
	if got := f.Decode(0x00); got != 0 {
		t.Errorf("zero: %g", got)
	}
	// Max normal E4M3 (OCP): S.1111.110 = 448.
	if got := f.Decode(0x7E); got != 448 {
		t.Errorf("max: %g", got)
	}
	// NaN pattern S.1111.111.
	if got := f.Decode(0x7F); !math.IsNaN(got) {
		t.Errorf("NaN pattern decoded to %g", got)
	}
	// 1.0 = 0.0111.000
	if got := f.Decode(0x38); got != 1.0 {
		t.Errorf("one: %g", got)
	}
	// Smallest subnormal: 2^-9.
	if got := f.Decode(0x01); got != math.Pow(2, -9) {
		t.Errorf("min subnormal: %g", got)
	}
}

func TestFP16Values(t *testing.T) {
	f := FP16{}
	cases := map[uint32]float64{
		0x0000: 0,
		0x3C00: 1,
		0xBC00: -1,
		0x4000: 2,
		0x3555: 0.333251953125,
		0x7BFF: 65504,
		0x0400: math.Pow(2, -14),
	}
	for code, w := range cases {
		if got := f.Decode(code); got != w {
			t.Errorf("Decode(%#04x) = %g, want %g", code, got, w)
		}
	}
	if !math.IsInf(f.Decode(0x7C00), 1) || !math.IsInf(f.Decode(0xFC00), -1) {
		t.Error("infinities")
	}
	if !math.IsNaN(f.Decode(0x7C01)) {
		t.Error("NaN")
	}
}

func TestEncodeDecodeRoundTripSmall(t *testing.T) {
	for _, f := range []Format{FP4{}, FP8{}} {
		n := uint32(1) << uint(f.Bits())
		for code := uint32(0); code < n; code++ {
			v := f.Decode(code)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			back := f.Decode(f.Encode(v))
			if back != v {
				t.Errorf("%s: Encode(Decode(%d)=%g) decodes to %g", f.Name(), code, v, back)
			}
		}
	}
}

func TestFP16EncodeRoundTrip(t *testing.T) {
	f := FP16{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		code := uint32(rng.Intn(1 << 16))
		v := f.Decode(code)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		back := f.Decode(f.Encode(v))
		if back != v {
			t.Fatalf("code %#04x: value %g re-encodes to %g", code, v, back)
		}
	}
}

func TestFP16EncodeSpecials(t *testing.T) {
	f := FP16{}
	if !math.IsNaN(f.Decode(f.Encode(math.NaN()))) {
		t.Error("NaN encode")
	}
	if got := f.Decode(f.Encode(math.Inf(1))); got != 65504 {
		t.Errorf("inf clamps to %g", got)
	}
	if got := f.Decode(f.Encode(1e9)); got != 65504 {
		t.Errorf("overflow clamps to %g", got)
	}
	negZero := math.Copysign(0, -1)
	if got := f.Decode(f.Encode(negZero)); got != 0 || !math.Signbit(got) {
		t.Errorf("-0 encodes to %g (signbit %v)", got, math.Signbit(got))
	}
}

func TestEncodeNearestProperty(t *testing.T) {
	// For any v, the encoded value must be at least as close as every other
	// representable value.
	check := func(f Format, maxFinite float64) func(float64) bool {
		return func(raw float64) bool {
			v := math.Mod(raw, 2*maxFinite)
			if math.IsNaN(v) {
				return true
			}
			got := f.Decode(f.Encode(v))
			gd := math.Abs(got - v)
			n := uint32(1) << uint(f.Bits())
			for code := uint32(0); code < n; code++ {
				x := f.Decode(code)
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue
				}
				if math.Abs(x-v) < gd-1e-12 {
					return false
				}
			}
			return true
		}
	}
	for _, c := range []struct {
		f         Format
		maxFinite float64
	}{{FP4{}, 6}, {FP8{}, 448}} {
		if err := quick.Check(check(c.f, c.maxFinite), &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.f.Name(), err)
		}
	}
}

func BenchmarkFP16Encode(b *testing.B) {
	f := FP16{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Encode(3.14159)
	}
}
