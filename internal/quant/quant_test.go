package quant

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCodecDecodeUnsigned(t *testing.T) {
	c := MustCodec(3, Unsigned)
	for code := uint32(0); code < 8; code++ {
		if got := c.Decode(code); got != int32(code) {
			t.Errorf("Decode(%d) = %d", code, got)
		}
	}
	if c.MinVal() != 0 || c.MaxVal() != 7 || c.MaxAbs() != 7 {
		t.Errorf("range = [%d,%d] maxabs %d", c.MinVal(), c.MaxVal(), c.MaxAbs())
	}
}

func TestCodecDecodeTwos(t *testing.T) {
	c := MustCodec(3, Twos)
	want := []int32{0, 1, 2, 3, -4, -3, -2, -1}
	for code, w := range want {
		if got := c.Decode(uint32(code)); got != w {
			t.Errorf("Decode(%d) = %d, want %d", code, got, w)
		}
	}
	if c.MinVal() != -4 || c.MaxVal() != 3 || c.MaxAbs() != 4 {
		t.Errorf("range = [%d,%d] maxabs %d", c.MinVal(), c.MaxVal(), c.MaxAbs())
	}
}

func TestCodecDecodeSymmetric(t *testing.T) {
	c1 := MustCodec(1, Symmetric)
	if c1.Decode(0) != -1 || c1.Decode(1) != 1 {
		t.Errorf("1-bit symmetric: %d %d", c1.Decode(0), c1.Decode(1))
	}
	c2 := MustCodec(2, Symmetric)
	want := []int32{-3, -1, 1, 3}
	for code, w := range want {
		if got := c2.Decode(uint32(code)); got != w {
			t.Errorf("Decode(%d) = %d, want %d", code, got, w)
		}
	}
	if c2.MaxAbs() != 3 {
		t.Errorf("MaxAbs = %d", c2.MaxAbs())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	codecs := []Codec{
		MustCodec(1, Symmetric), MustCodec(2, Symmetric),
		MustCodec(2, Twos), MustCodec(3, Twos), MustCodec(4, Twos),
		MustCodec(3, Unsigned), MustCodec(8, Twos),
		MustCodec(2, TwosSym), MustCodec(4, TwosSym),
	}
	for _, c := range codecs {
		for code := uint32(0); code < uint32(c.Levels()); code++ {
			if c.Mode == TwosSym && code == uint32(c.Levels()/2) {
				// The excluded minimum pattern decodes to 0 and is never
				// produced by Encode.
				if c.Decode(code) != 0 {
					t.Errorf("%v: excluded pattern decodes to %d, want 0", c, c.Decode(code))
				}
				continue
			}
			v := c.Decode(code)
			back := c.Encode(v)
			if back != code {
				t.Errorf("%v: Encode(Decode(%d)=%d) = %d", c, code, v, back)
			}
		}
	}
}

func TestTwosSymRange(t *testing.T) {
	c := MustCodec(4, TwosSym)
	if c.MinVal() != -7 || c.MaxVal() != 7 || c.MaxAbs() != 7 {
		t.Errorf("TwosSym 4-bit range [%d,%d]", c.MinVal(), c.MaxVal())
	}
	if got := c.Decode(c.Encode(-100)); got != -7 {
		t.Errorf("clamp low = %d", got)
	}
	if _, err := NewCodec(1, TwosSym); err == nil {
		t.Error("accepted 1-bit TwosSym")
	}
}

func TestEncodeClamps(t *testing.T) {
	c := MustCodec(3, Twos)
	if got := c.Decode(c.Encode(100)); got != 3 {
		t.Errorf("clamp high: %d", got)
	}
	if got := c.Decode(c.Encode(-100)); got != -4 {
		t.Errorf("clamp low: %d", got)
	}
	s := MustCodec(2, Symmetric)
	if got := s.Decode(s.Encode(9)); got != 3 {
		t.Errorf("symmetric clamp high: %d", got)
	}
	if got := s.Decode(s.Encode(-9)); got != -3 {
		t.Errorf("symmetric clamp low: %d", got)
	}
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(0, Twos); err == nil {
		t.Error("accepted 0 bits")
	}
	if _, err := NewCodec(17, Twos); err == nil {
		t.Error("accepted 17 bits")
	}
	if _, err := NewCodec(4, Mode(99)); err == nil {
		t.Error("accepted bogus mode")
	}
}

func TestFormats(t *testing.T) {
	if W1A3.Name() != "W1A3" || W4A4.Name() != "W4A4" {
		t.Errorf("names: %s %s", W1A3.Name(), W4A4.Name())
	}
	// Paper defaults: 1-bit weights are +-1.
	if W1A3.Weight.Decode(0) != -1 || W1A3.Weight.Decode(1) != 1 {
		t.Error("W1 weights should decode to {-1,+1}")
	}
	// 3-bit activations are two's complement (Fig. 2).
	if W1A3.Act.Decode(0b011) != 3 || W1A3.Act.Decode(0b111) != -1 {
		t.Error("A3 should be two's complement")
	}
	if len(Formats) != 4 {
		t.Errorf("Formats has %d entries", len(Formats))
	}
}

func TestParseFormat(t *testing.T) {
	f, err := ParseFormat("W2A2")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "W2A2" {
		t.Errorf("round trip: %s", f.Name())
	}
	if _, err := ParseFormat("garbage"); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ParseFormat("W0A9"); err == nil {
		t.Error("accepted W0A9")
	}
}

func TestMaxDot(t *testing.T) {
	// W1A3: |w| <= 1, |a| <= 4, p=5 -> 20.
	if got := W1A3.MaxDot(5); got != 20 {
		t.Errorf("W1A3 MaxDot(5) = %d", got)
	}
	// W4A4 with symmetric-clipped weights: |w| <= 7, |a| <= 8, p=3 -> 168.
	if got := W4A4.MaxDot(3); got != 168 {
		t.Errorf("W4A4 MaxDot(3) = %d", got)
	}
}

func TestQuantizeBasic(t *testing.T) {
	data := []float64{-1.0, -0.5, 0, 0.5, 1.0, 0.25}
	tt, err := Quantize(data, 2, 3, MustCodec(3, Twos))
	if err != nil {
		t.Fatal(err)
	}
	// absmax=1, maxabs level=4 -> scale=0.25; values map to -4,-2,0,2,4->3(clamped),1
	wantVals := []int32{-4, -2, 0, 2, 3, 1}
	for i, w := range wantVals {
		got := tt.Codec.Decode(uint32(tt.Codes[i]))
		if got != w {
			t.Errorf("code[%d] decodes to %d, want %d", i, got, w)
		}
	}
	if got := tt.Dequantize()[0]; got != -1.0 {
		t.Errorf("Dequantize()[0] = %g", got)
	}
}

func TestQuantizeBinaryWeights(t *testing.T) {
	data := []float64{-0.3, 0.7, 0.0, -0.9}
	tt, err := Quantize(data, 2, 2, MustCodec(1, Symmetric))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		v := tt.Codec.Decode(uint32(tt.Codes[i]))
		if v != -1 && v != 1 {
			t.Errorf("binary weight decoded to %d", v)
		}
	}
	// Signs must be preserved for clearly-signed inputs.
	if tt.ValueAt(0, 0) != -1 || tt.ValueAt(0, 1) != 1 || tt.ValueAt(1, 1) != -1 {
		t.Errorf("signs: %d %d %d", tt.ValueAt(0, 0), tt.ValueAt(0, 1), tt.ValueAt(1, 1))
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	// Quantization error must be bounded by scale (1 step for Twos,
	// 2 steps for Symmetric since only odd levels exist).
	rng := rand.New(rand.NewSource(3))
	for _, codec := range []Codec{MustCodec(4, Twos), MustCodec(2, Symmetric), MustCodec(3, Twos)} {
		data := make([]float64, 128)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		tt, err := Quantize(data, 8, 16, codec)
		if err != nil {
			t.Fatal(err)
		}
		deq := tt.Dequantize()
		bound := tt.Scale * 1.01
		if codec.Mode == Symmetric {
			bound = 2 * tt.Scale * 1.01
		}
		for i := range data {
			// Clamped values can exceed the step bound; skip saturated ones.
			if math.Abs(data[i]) >= tt.Scale*float64(codec.MaxAbs()) {
				continue
			}
			if err := math.Abs(deq[i] - data[i]); err > bound {
				t.Fatalf("%v: elem %d error %g > bound %g (v=%g scale=%g)",
					codec, i, err, bound, data[i], tt.Scale)
			}
		}
	}
}

func TestQuantizeValidation(t *testing.T) {
	if _, err := Quantize([]float64{1}, 0, 1, MustCodec(2, Twos)); err == nil {
		t.Error("accepted zero rows")
	}
	if _, err := Quantize([]float64{1, 2}, 1, 1, MustCodec(2, Twos)); err == nil {
		t.Error("accepted mismatched length")
	}
	if _, err := Quantize([]float64{1}, 1, 1, MustCodec(16, Twos)); err == nil {
		t.Error("accepted 16-bit codec into uint8 storage")
	}
}

func TestQuantizeAllZeros(t *testing.T) {
	tt, err := Quantize(make([]float64, 4), 2, 2, MustCodec(3, Twos))
	if err != nil {
		t.Fatal(err)
	}
	if tt.Scale != 1.0 {
		t.Errorf("zero tensor scale = %g", tt.Scale)
	}
	for _, c := range tt.Codes {
		if tt.Codec.Decode(uint32(c)) != 0 {
			t.Errorf("zero tensor produced nonzero code %d", c)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []uint8, bitsRaw uint8) bool {
		bits := 1 + int(bitsRaw%4)
		p := len(raw)
		if p == 0 || p*bits > 32 {
			return true
		}
		codes := make([]uint32, p)
		for i, b := range raw {
			codes[i] = uint32(b) & ((1 << bits) - 1)
		}
		x := PackVector(codes, bits)
		back := UnpackVector(x, bits, p)
		return reflect.DeepEqual(codes, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPackVectorLayout(t *testing.T) {
	// Element 0 occupies the least significant bits.
	x := PackVector([]uint32{0b011, 0b000, 0b010}, 3)
	if x != 0b010_000_011 {
		t.Errorf("packed = %09b", x)
	}
}

func TestPackVectorPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PackVector did not panic")
		}
	}()
	PackVector(make([]uint32, 9), 4) // 36 bits
}

func TestUnpackInto(t *testing.T) {
	dst := make([]uint32, 3)
	UnpackInto(dst, 0b010_000_011, 3)
	if !reflect.DeepEqual(dst, []uint32{3, 0, 2}) {
		t.Errorf("UnpackInto = %v", dst)
	}
}

func TestModeString(t *testing.T) {
	if Unsigned.String() != "unsigned" || Twos.String() != "twos" || Symmetric.String() != "symmetric" {
		t.Error("mode strings")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode string")
	}
}

func TestTensorAccessors(t *testing.T) {
	tt := &Tensor{Rows: 2, Cols: 2, Codec: MustCodec(2, Twos), Scale: 0.5,
		Codes: []uint8{0, 1, 2, 3}}
	if tt.At(1, 0) != 2 {
		t.Errorf("At(1,0) = %d", tt.At(1, 0))
	}
	if tt.ValueAt(1, 0) != -2 {
		t.Errorf("ValueAt(1,0) = %d", tt.ValueAt(1, 0))
	}
	if got := tt.Dequantize()[2]; got != -1.0 {
		t.Errorf("Dequantize() at (1,0) = %g", got)
	}
}

func BenchmarkQuantize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 768*128)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantize(data, 768, 128, W1A3.Act); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantizeCalibratedBinary(t *testing.T) {
	// 1-bit symmetric: scale must be mean(|v|), the BinaryBERT convention.
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 4096)
	var meanAbs float64
	for i := range data {
		data[i] = rng.NormFloat64()
		meanAbs += math.Abs(data[i])
	}
	meanAbs /= float64(len(data))
	tt, err := QuantizeCalibrated(data, 64, 64, MustCodec(1, Symmetric))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tt.Scale-meanAbs)/meanAbs > 1e-12 {
		t.Errorf("binary scale %g, want mean|v| %g", tt.Scale, meanAbs)
	}
	// Calibrated binary must beat absmax binary on MSE.
	abs, err := Quantize(data, 64, 64, MustCodec(1, Symmetric))
	if err != nil {
		t.Fatal(err)
	}
	if mse(tt, data) >= mse(abs, data) {
		t.Error("calibrated binary did not beat absmax binary")
	}
}

func TestQuantizeCalibratedClipping(t *testing.T) {
	// 2-bit TwosSym on Gaussian data: absmax scaling zeroes most weights;
	// calibrated clipping must not.
	rng := rand.New(rand.NewSource(8))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	codec := MustCodec(2, TwosSym)
	cal, err := QuantizeCalibrated(data, 64, 64, codec)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := Quantize(data, 64, 64, codec)
	if err != nil {
		t.Fatal(err)
	}
	zeros := func(tt *Tensor) int {
		n := 0
		for i := range tt.Codes {
			if tt.Codec.Decode(uint32(tt.Codes[i])) == 0 {
				n++
			}
		}
		return n
	}
	if z := zeros(abs); z < len(data)/2 {
		t.Errorf("absmax 2-bit should zero most weights (got %d/%d)", z, len(data))
	}
	if z := zeros(cal); z > len(data)/2 {
		t.Errorf("calibrated 2-bit zeroed %d/%d weights", z, len(data))
	}
	if mse(cal, data) >= mse(abs, data) {
		t.Error("calibrated clipping did not reduce MSE")
	}
}

func TestQuantizeCalibratedZeroTensor(t *testing.T) {
	tt, err := QuantizeCalibrated(make([]float64, 16), 4, 4, MustCodec(4, Twos))
	if err != nil {
		t.Fatal(err)
	}
	if tt.Scale != 1 {
		t.Errorf("zero tensor scale %g", tt.Scale)
	}
}

func TestQuantizeCalibratedValidation(t *testing.T) {
	if _, err := QuantizeCalibrated([]float64{1}, 0, 1, MustCodec(2, Twos)); err == nil {
		t.Error("accepted zero rows")
	}
}

func mse(tt *Tensor, data []float64) float64 {
	deq := tt.Dequantize()
	var s float64
	for i := range data {
		d := deq[i] - data[i]
		s += d * d
	}
	return s / float64(len(data))
}
