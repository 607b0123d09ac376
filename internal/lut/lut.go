// Package lut implements LoCaLUT's lookup-table family: the operation-packed
// LUT (§III-A), the canonical LUT (§IV-A), the reordering LUT (§IV-B), and
// the capacity laws (Eq. 1, Fig. 6) that govern the capacity–computation
// tradeoff.
//
// All tables are stored in the exact byte layout the simulated PIM device
// would hold: little-endian entries of the minimal width that fits the
// worst-case partial dot product, with the canonical and reordering LUTs in
// column-major order so that a column ("slice") is a contiguous byte range —
// the unit LUT slice streaming DMAs from the DRAM bank into the local buffer.
package lut

import (
	"fmt"

	"github.com/ais-snu/localut/internal/perm"
	"github.com/ais-snu/localut/internal/quant"
)

// MaxBuildBytes caps in-memory LUT construction. Capacity *planning* handles
// arbitrarily large tables analytically; actually materializing one beyond
// this bound is always a configuration mistake (a 64 MB UPMEM bank cannot
// hold it either).
const MaxBuildBytes = 1 << 30

// Spec identifies a LUT family member: a quantization format plus a packing
// degree p (the number of MAC operations folded into one lookup).
type Spec struct {
	Fmt quant.Format
	P   int
}

// NewSpec validates the spec: p must be positive and the packed weight and
// activation indices must fit in 32 bits.
func NewSpec(f quant.Format, p int) (Spec, error) {
	if p < 1 {
		return Spec{}, fmt.Errorf("lut: packing degree %d < 1", p)
	}
	if p*f.Weight.Bits > 32 {
		return Spec{}, fmt.Errorf("lut: packed weight index %d bits exceeds 32", p*f.Weight.Bits)
	}
	if p*f.Act.Bits > 32 {
		return Spec{}, fmt.Errorf("lut: packed activation index %d bits exceeds 32", p*f.Act.Bits)
	}
	if p > perm.MaxFactorialN {
		return Spec{}, fmt.Errorf("lut: packing degree %d exceeds %d", p, perm.MaxFactorialN)
	}
	return Spec{Fmt: f, P: p}, nil
}

// MustSpec is NewSpec panicking on error.
func MustSpec(f quant.Format, p int) Spec {
	s, err := NewSpec(f, p)
	if err != nil {
		panic(err)
	}
	return s
}

func (s Spec) String() string { return fmt.Sprintf("%s/p%d", s.Fmt.Name(), s.P) }

// Rows returns the weight-index space size 2^(bw*p), shared by all tables.
func (s Spec) Rows() int64 { return int64(1) << uint(s.Fmt.Weight.Bits*s.P) }

// OpCols returns the activation-index space of the operation-packed LUT,
// 2^(ba*p).
func (s Spec) OpCols() int64 { return int64(1) << uint(s.Fmt.Act.Bits*s.P) }

// CanonCols returns the canonical LUT column count C(2^ba + p - 1, p)
// (Eq. 1), saturating at math.MaxInt64.
func (s Spec) CanonCols() int64 {
	return perm.MultisetCount(s.Fmt.Act.Levels(), s.P)
}

// ReorderCols returns the reordering LUT column count p!.
func (s Spec) ReorderCols() int64 { return perm.Factorial(s.P) }

// EntryBytes returns the minimal entry width (1, 2 or 4 bytes) that holds
// the worst-case p-term dot product. This dynamic sizing is what makes the
// paper's W1A3 capacity numbers work out (1-byte entries up to p=8).
func (s Spec) EntryBytes() int {
	m := s.Fmt.MaxDot(s.P)
	switch {
	case m <= 127:
		return 1
	case m <= 32767:
		return 2
	default:
		return 4
	}
}

// WeightRowBytes returns the byte width of a packed weight vector
// (bw*p bits), the entry width of the reordering LUT.
func (s Spec) WeightRowBytes() int {
	bits := s.Fmt.Weight.Bits * s.P
	return (bits + 7) / 8
}

// OpPackedBytes returns the operation-packed LUT size in bytes
// (bo * 2^((bw+ba)*p), §III-A), saturating on overflow.
func (s Spec) OpPackedBytes() int64 {
	return satMul3(s.Rows(), s.OpCols(), int64(s.EntryBytes()))
}

// CanonicalBytes returns the canonical LUT size in bytes.
func (s Spec) CanonicalBytes() int64 {
	return satMul3(s.Rows(), s.CanonCols(), int64(s.EntryBytes()))
}

// ReorderBytes returns the reordering LUT size in bytes.
func (s Spec) ReorderBytes() int64 {
	return satMul3(s.Rows(), s.ReorderCols(), int64(s.WeightRowBytes()))
}

// CombinedBytes returns canonical + reordering size — LoCaLUT's total LUT
// footprint.
func (s Spec) CombinedBytes() int64 {
	return satAdd(s.CanonicalBytes(), s.ReorderBytes())
}

// ReductionRate returns OpPackedBytes / CombinedBytes, the Fig. 6 red line.
func (s Spec) ReductionRate() float64 {
	return float64(s.OpPackedBytes()) / float64(s.CombinedBytes())
}

// SliceBytes returns the byte size of one streamed slice pair: one canonical
// column plus one reordering column (both 2^(bw*p) entries tall).
func (s Spec) SliceBytes() int64 {
	return s.Rows() * int64(s.EntryBytes()+s.WeightRowBytes())
}

func satMul3(a, b, c int64) int64 {
	return satMul(satMul(a, b), c)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	const max = int64(^uint64(0) >> 1)
	if a > max/b {
		return max
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	const max = int64(^uint64(0) >> 1)
	if a > max-b {
		return max
	}
	return a + b
}

// ReadEntry decodes the little-endian signed entry of the given width at
// index idx from data.
func ReadEntry(data []byte, idx, width int) int32 {
	off := idx * width
	switch width {
	case 1:
		return int32(int8(data[off]))
	case 2:
		return int32(int16(uint16(data[off]) | uint16(data[off+1])<<8))
	case 4:
		return int32(uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
	}
	panic(fmt.Sprintf("lut: unsupported entry width %d", width))
}

// WriteEntry encodes v little-endian at index idx with the given width.
// Values outside the width's range indicate a sizing bug and panic.
func WriteEntry(data []byte, idx, width int, v int32) {
	off := idx * width
	switch width {
	case 1:
		if v < -128 || v > 127 {
			panic(fmt.Sprintf("lut: entry %d overflows 1 byte", v))
		}
		data[off] = byte(int8(v))
	case 2:
		if v < -32768 || v > 32767 {
			panic(fmt.Sprintf("lut: entry %d overflows 2 bytes", v))
		}
		data[off] = byte(v)
		data[off+1] = byte(v >> 8)
	case 4:
		data[off] = byte(v)
		data[off+1] = byte(v >> 8)
		data[off+2] = byte(v >> 16)
		data[off+3] = byte(v >> 24)
	default:
		panic(fmt.Sprintf("lut: unsupported entry width %d", width))
	}
}

// ReadUint decodes the little-endian unsigned entry (reordering LUT payload).
func ReadUint(data []byte, idx, width int) uint32 {
	off := idx * width
	switch width {
	case 1:
		return uint32(data[off])
	case 2:
		return uint32(data[off]) | uint32(data[off+1])<<8
	case 4:
		return uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24
	}
	panic(fmt.Sprintf("lut: unsupported entry width %d", width))
}

// WriteUint encodes an unsigned entry little-endian.
func WriteUint(data []byte, idx, width int, v uint32) {
	off := idx * width
	switch width {
	case 1:
		if v > 0xFF {
			panic(fmt.Sprintf("lut: uint entry %d overflows 1 byte", v))
		}
		data[off] = byte(v)
	case 2:
		if v > 0xFFFF {
			panic(fmt.Sprintf("lut: uint entry %d overflows 2 bytes", v))
		}
		data[off] = byte(v)
		data[off+1] = byte(v >> 8)
	case 4:
		data[off] = byte(v)
		data[off+1] = byte(v >> 8)
		data[off+2] = byte(v >> 16)
		data[off+3] = byte(v >> 24)
	default:
		panic(fmt.Sprintf("lut: unsupported entry width %d", width))
	}
}

// dotPacked computes the exact inner product of a packed weight vector and a
// slice of activation codes under the spec's codecs.
func (s Spec) dotPacked(wPacked uint32, actCodes []int) int32 {
	var acc int32
	wBits := s.Fmt.Weight.Bits
	wMask := uint32(1<<wBits) - 1
	for i := 0; i < s.P; i++ {
		wc := (wPacked >> (uint(i) * uint(wBits))) & wMask
		acc += s.Fmt.Weight.Decode(wc) * s.Fmt.Act.Decode(uint32(actCodes[i]))
	}
	return acc
}

// OpPacked is the full operation-packed LUT of §III-A: entry (w, a) holds
// the p-term dot product of the decoded weight vector w and activation
// vector a. Stored row-major (the whole table is resident wherever it
// lives, so layout only matters for lookup address arithmetic).
type OpPacked struct {
	Spec
	Data []byte
}

// BuildOpPacked materializes the operation-packed LUT.
func BuildOpPacked(s Spec) (*OpPacked, error) {
	size := s.OpPackedBytes()
	if size > MaxBuildBytes {
		return nil, fmt.Errorf("lut: operation-packed LUT %s is %d bytes, exceeds build cap %d",
			s, size, MaxBuildBytes)
	}
	rows, cols, w := int(s.Rows()), int(s.OpCols()), s.EntryBytes()
	t := &OpPacked{Spec: s, Data: make([]byte, size)}
	aBits := s.Fmt.Act.Bits
	aMask := 1<<aBits - 1
	actCodes := make([]int, s.P)
	for a := 0; a < cols; a++ {
		for i := 0; i < s.P; i++ {
			actCodes[i] = (a >> (uint(i) * uint(aBits))) & aMask
		}
		for r := 0; r < rows; r++ {
			WriteEntry(t.Data, r*cols+a, w, s.dotPacked(uint32(r), actCodes))
		}
	}
	return t, nil
}

// Lookup returns the packed dot product for packed indices (w, a).
func (t *OpPacked) Lookup(w, a uint32) int32 {
	return ReadEntry(t.Data, int(w)*int(t.OpCols())+int(a), t.EntryBytes())
}

// Canonical is the canonicalized LUT of §IV-A: only columns whose activation
// vector is sorted (non-decreasing in code order) are stored, indexed by
// multiset rank. Column-major: column c occupies bytes
// [c*Rows*EntryBytes, (c+1)*Rows*EntryBytes).
type Canonical struct {
	Spec
	Data []byte
}

// BuildCanonical materializes the canonical LUT.
func BuildCanonical(s Spec) (*Canonical, error) {
	size := s.CanonicalBytes()
	if size > MaxBuildBytes {
		return nil, fmt.Errorf("lut: canonical LUT %s is %d bytes, exceeds build cap %d",
			s, size, MaxBuildBytes)
	}
	rows, cols, w := int(s.Rows()), int(s.CanonCols()), s.EntryBytes()
	t := &Canonical{Spec: s, Data: make([]byte, size)}
	alphabet := s.Fmt.Act.Levels()
	for c := 0; c < cols; c++ {
		actCodes := perm.MultisetUnrank(int64(c), alphabet, s.P)
		base := c * rows
		for r := 0; r < rows; r++ {
			WriteEntry(t.Data, base+r, w, s.dotPacked(uint32(r), actCodes))
		}
	}
	return t, nil
}

// Lookup returns the entry for canonical weight row w and multiset column c.
func (t *Canonical) Lookup(w uint32, c int64) int32 {
	return ReadEntry(t.Data, int(c)*int(t.Rows())+int(w), t.EntryBytes())
}

// Reorder is the reordering LUT of §IV-B: entry (w, sigma) holds the packed
// weight vector w permuted by the length-p permutation with Lehmer rank
// sigma. Column-major like Canonical, so a permutation's column streams as
// one contiguous slice.
type Reorder struct {
	Spec
	Data []byte
}

// BuildReorder materializes the reordering LUT.
func BuildReorder(s Spec) (*Reorder, error) {
	size := s.ReorderBytes()
	if size > MaxBuildBytes {
		return nil, fmt.Errorf("lut: reordering LUT %s is %d bytes, exceeds build cap %d",
			s, size, MaxBuildBytes)
	}
	rows, cols, w := int(s.Rows()), int(s.ReorderCols()), s.WeightRowBytes()
	t := &Reorder{Spec: s, Data: make([]byte, size)}
	wBits := s.Fmt.Weight.Bits
	codes := make([]uint32, s.P)
	permuted := make([]uint32, s.P)
	for c := 0; c < cols; c++ {
		sigma := perm.Unrank(int64(c), s.P)
		base := c * rows
		for r := 0; r < rows; r++ {
			quant.UnpackInto(codes, uint32(r), wBits)
			for i, idx := range sigma {
				permuted[i] = codes[idx]
			}
			WriteUint(t.Data, base+r, w, quant.PackVector(permuted, wBits))
		}
	}
	return t, nil
}

// Lookup returns the reordered packed weight vector for row w and
// permutation rank sigma.
func (t *Reorder) Lookup(w uint32, sigma int64) uint32 {
	return ReadUint(t.Data, int(sigma)*int(t.Rows())+int(w), t.WeightRowBytes())
}

// CanonicalizeActsScratch sorts the activation codes of one p-vector into
// canonical (non-decreasing code) order and returns the multiset column rank
// together with the Lehmer rank of the stable sorting permutation — the
// host-side step 1 of Fig. 4(b)/Fig. 5(b). The caller provides the scratch:
// sorted and sp must each have length p. On return sorted holds the
// canonical codes and sp the stable sorting permutation whose Lehmer rank is
// sigma. It allocates nothing, so the per-group staging loops of the
// packed-LUT kernels can call it once per (column, group) without touching
// the heap.
func (s Spec) CanonicalizeActsScratch(actCodes, sorted, sp []int) (col int64, sigma int64, err error) {
	if len(actCodes) != s.P {
		return 0, 0, fmt.Errorf("lut: CanonicalizeActsScratch: got %d codes, want p=%d", len(actCodes), s.P)
	}
	perm.SortPermInto(actCodes, sorted, sp)
	col, err = perm.MultisetRank(sorted, s.Fmt.Act.Levels())
	if err != nil {
		return 0, 0, err
	}
	return col, perm.MustRank(sp), nil
}
