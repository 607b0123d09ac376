// Package quant implements the low-bit quantization substrate of LoCaLUT:
// integer codecs for 1-4 bit weight/activation codes, the symmetric uniform
// quantizer used to produce them from float tensors, and the bit-packing
// helpers that assemble p codes into a single LUT index.
//
// LoCaLUT treats numbers as symbols (§VII-A of the paper): the LUT machinery
// only sees opaque codes, while a Codec defines what integer value each code
// denotes. LUT entries are built from decoded values, so correctness of the
// whole pipeline reduces to "same codec everywhere", which the tests enforce.
package quant

import (
	"fmt"
	"math"
)

// Mode selects how a Codec maps bit patterns to integer values.
type Mode int

const (
	// Unsigned maps code c to value c (0 .. 2^bits-1).
	Unsigned Mode = iota
	// Twos maps codes by two's complement (-2^(bits-1) .. 2^(bits-1)-1).
	Twos
	// Symmetric maps code c to the odd level 2c - (2^bits - 1), giving the
	// sign-symmetric levels binary networks use: 1 bit -> {-1,+1},
	// 2 bits -> {-3,-1,+1,+3}.
	Symmetric
	// TwosSym is two's complement with the most negative level excluded —
	// the symmetric range [-(2^(b-1)-1), 2^(b-1)-1] that symmetric weight
	// quantizers (OmniQuant, KDLSQ-BERT) use. The otherwise-unused minimum
	// bit pattern decodes to 0 so that LUT rows built for it stay within
	// the same entry range; Encode never produces it.
	TwosSym
)

func (m Mode) String() string {
	switch m {
	case Unsigned:
		return "unsigned"
	case Twos:
		return "twos"
	case Symmetric:
		return "symmetric"
	case TwosSym:
		return "twossym"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Codec describes an integer code space of Bits bits with a decode Mode.
// The zero value is an invalid codec; use NewCodec.
type Codec struct {
	Bits int
	Mode Mode
}

// NewCodec validates and returns a codec. Bits must be in [1, 16].
func NewCodec(bits int, mode Mode) (Codec, error) {
	if bits < 1 || bits > 16 {
		return Codec{}, fmt.Errorf("quant: codec bits %d outside [1,16]", bits)
	}
	switch mode {
	case Unsigned, Twos, Symmetric, TwosSym:
	default:
		return Codec{}, fmt.Errorf("quant: unknown mode %d", int(mode))
	}
	if mode == TwosSym && bits < 2 {
		return Codec{}, fmt.Errorf("quant: TwosSym needs at least 2 bits")
	}
	return Codec{Bits: bits, Mode: mode}, nil
}

// MustCodec is NewCodec panicking on error, for static configuration.
func MustCodec(bits int, mode Mode) Codec {
	c, err := NewCodec(bits, mode)
	if err != nil {
		panic(err)
	}
	return c
}

// Levels returns the number of distinct codes, 2^Bits.
func (c Codec) Levels() int { return 1 << c.Bits }

// Mask returns the bit mask covering one code.
func (c Codec) Mask() uint32 { return uint32(1<<c.Bits) - 1 }

// Decode maps a code (low Bits bits of x) to its integer value.
func (c Codec) Decode(x uint32) int32 {
	v := x & c.Mask()
	switch c.Mode {
	case Unsigned:
		return int32(v)
	case Twos:
		half := uint32(1) << (c.Bits - 1)
		if v >= half {
			return int32(v) - int32(c.Levels())
		}
		return int32(v)
	case Symmetric:
		return 2*int32(v) - int32(c.Levels()-1)
	case TwosSym:
		half := uint32(1) << (c.Bits - 1)
		if v == half { // excluded minimum pattern
			return 0
		}
		if v > half {
			return int32(v) - int32(c.Levels())
		}
		return int32(v)
	}
	panic("quant: invalid codec mode")
}

// Encode maps an integer value to the nearest representable code. Values
// outside the representable range are clamped.
func (c Codec) Encode(v int32) uint32 {
	switch c.Mode {
	case Unsigned:
		return uint32(clampI32(v, 0, int32(c.Levels()-1)))
	case Twos:
		lo := -int32(c.Levels() / 2)
		hi := int32(c.Levels()/2 - 1)
		v = clampI32(v, lo, hi)
		return uint32(v) & c.Mask()
	case TwosSym:
		hi := int32(c.Levels()/2 - 1)
		v = clampI32(v, -hi, hi)
		return uint32(v) & c.Mask()
	case Symmetric:
		// v = 2c - (L-1)  =>  c = (v + L - 1) / 2, rounded to nearest level.
		l := int32(c.Levels())
		code := (v + l - 1 + 1) / 2 // +1 implements round-half-up of (v+L-1)/2
		if (v+l-1)%2 == 0 {
			code = (v + l - 1) / 2
		}
		return uint32(clampI32(code, 0, l-1))
	}
	panic("quant: invalid codec mode")
}

// MinVal and MaxVal bound Decode's output range.
func (c Codec) MinVal() int32 {
	switch c.Mode {
	case Unsigned:
		return 0
	case Twos:
		return -int32(c.Levels() / 2)
	case TwosSym:
		return -int32(c.Levels()/2 - 1)
	case Symmetric:
		return -int32(c.Levels() - 1)
	}
	panic("quant: invalid codec mode")
}

func (c Codec) MaxVal() int32 {
	switch c.Mode {
	case Unsigned:
		return int32(c.Levels() - 1)
	case Twos, TwosSym:
		return int32(c.Levels()/2 - 1)
	case Symmetric:
		return int32(c.Levels() - 1)
	}
	panic("quant: invalid codec mode")
}

// MaxAbs returns max(|MinVal|, |MaxVal|), the worst-case magnitude of a
// decoded value — used to size LUT entry widths.
func (c Codec) MaxAbs() int32 {
	a, b := c.MinVal(), c.MaxVal()
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

func (c Codec) String() string {
	return fmt.Sprintf("%db/%s", c.Bits, c.Mode)
}

func clampI32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Format is a weight/activation bit-width pairing ("WxAy" in the paper),
// carrying the codec for each side.
type Format struct {
	Weight Codec
	Act    Codec
}

// NewFormat builds the paper's default codec choice for a WxAy pairing:
// 1-bit weights decode to {-1,+1} (Symmetric, as in BinaryBERT), wider
// weights use the symmetric-clipped range of symmetric weight quantizers
// (TwosSym), and activations use two's complement (Fig. 2's "2's compl."
// convention).
func NewFormat(bw, ba int) (Format, error) {
	wMode := TwosSym
	if bw == 1 {
		wMode = Symmetric
	}
	wc, err := NewCodec(bw, wMode)
	if err != nil {
		return Format{}, fmt.Errorf("quant: weight codec: %w", err)
	}
	ac, err := NewCodec(ba, Twos)
	if err != nil {
		return Format{}, fmt.Errorf("quant: activation codec: %w", err)
	}
	return Format{Weight: wc, Act: ac}, nil
}

// MustFormat is NewFormat panicking on error.
func MustFormat(bw, ba int) Format {
	f, err := NewFormat(bw, ba)
	if err != nil {
		panic(err)
	}
	return f
}

// The four quantization settings evaluated in the paper (§VI-A).
var (
	W1A3 = MustFormat(1, 3)
	W1A4 = MustFormat(1, 4)
	W2A2 = MustFormat(2, 2)
	W4A4 = MustFormat(4, 4)
)

// Formats lists the paper's evaluation settings in presentation order.
var Formats = []Format{W1A3, W1A4, W2A2, W4A4}

// Name renders the format as the paper writes it, e.g. "W1A3".
func (f Format) Name() string {
	return fmt.Sprintf("W%dA%d", f.Weight.Bits, f.Act.Bits)
}

// ParseFormat parses "WxAy" names.
func ParseFormat(s string) (Format, error) {
	var bw, ba int
	if _, err := fmt.Sscanf(s, "W%dA%d", &bw, &ba); err != nil {
		return Format{}, fmt.Errorf("quant: cannot parse format %q: %w", s, err)
	}
	return NewFormat(bw, ba)
}

// MaxDot returns the largest absolute value of a p-term dot product of
// decoded weight and activation values, used to pick LUT entry width.
func (f Format) MaxDot(p int) int64 {
	return int64(p) * int64(f.Weight.MaxAbs()) * int64(f.Act.MaxAbs())
}

// Tensor is a quantized 2-D tensor: row-major codes plus the scale that maps
// decoded integers back to real values (real = scale * Decode(code)).
type Tensor struct {
	Rows, Cols int
	Codes      []uint8 // one code per element, low bits used
	Codec      Codec
	Scale      float64
}

// At returns the code at (r, c).
func (t *Tensor) At(r, c int) uint32 { return uint32(t.Codes[r*t.Cols+c]) }

// ValueAt returns the decoded integer at (r, c).
func (t *Tensor) ValueAt(r, c int) int32 { return t.Codec.Decode(t.At(r, c)) }

// Quantize performs symmetric absmax quantization of a row-major float
// matrix into the given codec. The scale is chosen so the largest-magnitude
// input maps to the codec's largest-magnitude level; an all-zero input gets
// scale 1 to keep dequantization well-defined. For 1-2 bit codecs on
// heavy-tailed data prefer QuantizeCalibrated — absmax scaling collapses
// most of the mass onto one or two levels there.
func Quantize(data []float64, rows, cols int, codec Codec) (*Tensor, error) {
	if err := checkQuantArgs(data, rows, cols, codec); err != nil {
		return nil, err
	}
	absmax := 0.0
	for _, v := range data {
		if a := math.Abs(v); a > absmax {
			absmax = a
		}
	}
	scale := 1.0
	if absmax > 0 {
		scale = absmax / float64(codec.MaxAbs())
	}
	return quantizeWithScale(data, rows, cols, codec, scale), nil
}

// gaussClip maps a bit width to the MSE-optimal clipping threshold (in
// standard deviations) for Gaussian data — the scaling convention of the
// low-bit quantization literature the paper evaluates with.
var gaussClip = map[int]float64{2: 1.71, 3: 2.15, 4: 2.55, 5: 2.94, 6: 3.29, 7: 3.61, 8: 3.92}

// QuantizeCalibrated quantizes with distribution-aware scaling: 1-bit
// symmetric codecs use the mean-|v| scale of binary networks (BinaryBERT);
// wider codecs clip at the MSE-optimal Gaussian threshold instead of the
// absolute maximum.
func QuantizeCalibrated(data []float64, rows, cols int, codec Codec) (*Tensor, error) {
	if err := checkQuantArgs(data, rows, cols, codec); err != nil {
		return nil, err
	}
	var sumAbs, sumSq, absmax float64
	for _, v := range data {
		a := math.Abs(v)
		sumAbs += a
		sumSq += v * v
		if a > absmax {
			absmax = a
		}
	}
	n := float64(len(data))
	scale := 1.0
	switch {
	case absmax == 0:
		// keep scale 1 for the all-zero tensor
	case codec.Mode == Symmetric && codec.Bits == 1:
		scale = sumAbs / n
	default:
		std := math.Sqrt(sumSq / n)
		alpha, ok := gaussClip[codec.Bits]
		if ok && codec.Mode == TwosSym {
			// TwosSym drops one level (2^b - 1 levels); shrink the clip by
			// the magnitude ratio so e.g. ternary (2-bit) lands near the
			// MSE-optimal threshold instead of zeroing most of the mass.
			alpha *= float64(codec.MaxAbs()) / float64(codec.Levels()/2)
		}
		clip := absmax
		if ok && alpha*std < absmax {
			clip = alpha * std
		}
		scale = clip / float64(codec.MaxAbs())
	}
	if scale == 0 {
		scale = 1
	}
	return quantizeWithScale(data, rows, cols, codec, scale), nil
}

func checkQuantArgs(data []float64, rows, cols int, codec Codec) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("quant: invalid shape %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return fmt.Errorf("quant: data length %d != %d*%d", len(data), rows, cols)
	}
	if codec.Bits > 8 {
		return fmt.Errorf("quant: Tensor stores codes in uint8; codec %v too wide", codec)
	}
	return nil
}

func quantizeWithScale(data []float64, rows, cols int, codec Codec, scale float64) *Tensor {
	t := &Tensor{Rows: rows, Cols: cols, Codec: codec, Scale: scale,
		Codes: make([]uint8, rows*cols)}
	for i, v := range data {
		var code uint32
		if codec.Mode == Symmetric {
			// Symmetric codecs only represent the odd levels 2c-(L-1);
			// pick the nearest level index directly so that e.g. a small
			// negative weight still binarizes to -1, not +1.
			l := float64(codec.Levels())
			c := int32(math.Round((v/scale + l - 1) / 2))
			code = uint32(clampI32(c, 0, int32(l)-1))
		} else {
			code = codec.Encode(int32(math.Round(v / scale)))
		}
		t.Codes[i] = uint8(code)
	}
	return t
}

// Dequantize expands the tensor back to row-major floats.
func (t *Tensor) Dequantize() []float64 {
	out := make([]float64, t.Rows*t.Cols)
	for i, c := range t.Codes {
		out[i] = t.Scale * float64(t.Codec.Decode(uint32(c)))
	}
	return out
}

// PackVector packs codes[0..p) (each fitting in codec.Bits) into a single
// index, element 0 in the least significant bits. It is the row/column index
// construction for operation-packed LUTs (§III-A).
func PackVector(codes []uint32, bits int) uint32 {
	if bits*len(codes) > 32 {
		panic(fmt.Sprintf("quant: PackVector: %d codes x %d bits exceeds 32", len(codes), bits))
	}
	var x uint32
	for i, c := range codes {
		x |= (c & ((1 << bits) - 1)) << (uint(i) * uint(bits))
	}
	return x
}

// UnpackVector splits a packed index back into p codes.
func UnpackVector(x uint32, bits, p int) []uint32 {
	out := make([]uint32, p)
	mask := uint32(1<<bits) - 1
	for i := 0; i < p; i++ {
		out[i] = (x >> (uint(i) * uint(bits))) & mask
	}
	return out
}

// UnpackInto is UnpackVector without allocation.
func UnpackInto(dst []uint32, x uint32, bits int) {
	mask := uint32(1<<bits) - 1
	for i := range dst {
		dst[i] = (x >> (uint(i) * uint(bits))) & mask
	}
}
