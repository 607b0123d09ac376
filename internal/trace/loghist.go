package trace

import (
	"math"
	"slices"
)

// LogHistogram defaults: buckets grow by ~5% per step, so quantiles read
// back from the buckets carry at most ~5% relative error — "within one
// bucket width" of the sorted-sample answer. logHistMin is the smallest
// resolvable value; anything below it (including zero) lands in the
// underflow bucket and reads back as the exact minimum seen.
const (
	logHistBase = 1.05
	logHistMin  = 1e-9
)

// LogHistogram is a bounded-memory streaming aggregate over positive
// samples: geometric (log-spaced) buckets plus exact count, sum, min and
// max. It replaces unbounded per-request record vectors for latency
// aggregation — memory is O(log(max/min)/log(base)) regardless of sample
// count — while keeping Mean and Max exact and quantiles within one bucket
// width of the sorted-sample estimator. Bucket counts are exact integers:
// two histograms fed the same multiset of samples are identical regardless
// of insertion order, so aggregations built on it stay byte-reproducible.
//
// Bucket edges are looked up, not recomputed: edges caches Min*Base^i per
// index, filled on first use by the one expression that defines an edge
// (histograms with the package defaults start from the shared defaultEdges).
// Add takes its first guess at the bucket from the sample's own bits — the
// float's exponent plus a 256-entry log2 table on its top mantissa bits —
// and the edge table then decides, so no Add calls math.Log and every
// count is what comparing against the edges alone would give.
type LogHistogram struct {
	Base   float64 // bucket width ratio, > 1
	Min    float64 // lower edge of bucket 0, > 0
	Counts []int64 // Counts[i] covers [Min*Base^i, Min*Base^(i+1)); grown on demand
	Under  int64   // samples < Min (zeros and denormals)
	N      int64   // total samples
	Sum    float64 // exact running sum, in insertion order
	MinV   float64 // exact smallest sample (valid when N > 0)
	MaxV   float64 // exact largest sample (valid when N > 0)
	// NonFinite counts NaN and ±Inf samples. They are not bucketed and
	// touch no other field: a non-finite latency is a simulator bug for
	// the auditor to report, not a value to aggregate.
	NonFinite int64

	edges []float64 // edges[i] = Min*Base^i, grown on demand; may alias defaultEdges
	// 1/math.Log2(Base) and math.Log2(Min), cached on first Add.
	invLog2Base, log2Min float64
}

// mantissaLog2[k] is log2 of the midpoint of the k-th of 256 equal slices
// of [1, 2): Add's estimate of log2 of a mantissa whose top eight bits are
// k, off by at most 0.003 — a twentieth of a default bucket.
var mantissaLog2 = func() (t [256]float64) {
	for k := range t {
		t[k] = math.Log2(1 + (float64(k)+0.5)/256)
	}
	return t
}()

// defaultEdges is the edge table of the package defaults through the first
// edge above 1e9, enough for any latency in seconds, built once by the
// expression growEdges uses. Every default histogram reads it instead of
// building its own; it is never written after package init, and its
// length equals its capacity, so a histogram growing past it appends to a
// copy of its own.
var defaultEdges = func() []float64 {
	var e []float64
	for n := 0; n == 0 || e[n-1] <= 1e9; n++ {
		e = append(e, edgeAt(logHistBase, logHistMin, n))
	}
	return slices.Clip(e)
}()

// edgeAt is the one expression that defines bucket n's lower edge.
func edgeAt(base, lowest float64, n int) float64 { return lowest * math.Pow(base, float64(n)) }

// NewLogHistogram builds an empty histogram with the package defaults.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{Base: logHistBase, Min: logHistMin}
}

// edge returns bucket i's lower edge Min*Base^i from the table.
func (h *LogHistogram) edge(i int) float64 {
	if i >= len(h.edges) {
		h.growEdges(i)
	}
	return h.edges[i]
}

// growEdges extends the table through index i. Every entry comes from the
// same expression whatever the growth order, so the table — and with it
// every bucket assignment — is a pure function of (Base, Min).
func (h *LogHistogram) growEdges(i int) {
	if h.edges == nil && h.Base == logHistBase && h.Min == logHistMin {
		if h.edges = defaultEdges; i < len(h.edges) {
			return
		}
	}
	for n := len(h.edges); n <= i; n++ {
		h.edges = append(h.edges, edgeAt(h.Base, h.Min, n))
	}
}

// Add counts one sample. A NaN or infinite sample only increments
// NonFinite.
func (h *LogHistogram) Add(v float64) {
	if v-v != 0 { // NaN or ±Inf
		h.NonFinite++
		return
	}
	h.N++
	h.Sum += v
	if h.N == 1 || v < h.MinV {
		h.MinV = v
	}
	if h.N == 1 || v > h.MaxV {
		h.MaxV = v
	}
	if v < h.Min {
		h.Under++
		return
	}
	if h.invLog2Base == 0 {
		h.invLog2Base, h.log2Min = 1/math.Log2(h.Base), math.Log2(h.Min)
	}
	// v >= Min > 0, so the sign bit is clear and bits>>52 is the biased
	// exponent alone. (A denormal v under a denormal Min reads a too-high
	// exponent; the guess is then far off and still only a guess.)
	bits := math.Float64bits(v)
	log2v := float64(int(bits>>52)-1023) + mantissaLog2[bits>>44&0xff]
	i := int((log2v - h.log2Min) * h.invLog2Base)
	if i < 0 {
		i = 0 // the table's error under a sample at Min, scaled by a Base near 1
	}
	// The guess can land a bucket off; nudge until edge(i) <= v < edge(i+1)
	// holds exactly.
	for i > 0 && v < h.edge(i) {
		i--
	}
	for v >= h.edge(i+1) {
		i++
	}
	for len(h.Counts) <= i {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[i]++
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts:
// the sample at fractional rank q*(N-1) is located by cumulative count and
// interpolated geometrically inside its bucket, then clamped to the exact
// [MinV, MaxV] range. The estimate is within one bucket width (~(Base-1)
// relative error) of the sorted-sample value. An empty histogram yields 0.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.N-1)
	cum := float64(h.Under)
	if rank < cum {
		return h.MinV
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			// Interpolate the rank among the bucket's c samples on the
			// bucket's geometric scale.
			frac := (rank - cum + 0.5) / float64(c)
			if frac > 1 {
				frac = 1
			}
			v := h.edge(i) * math.Pow(h.Base, frac)
			if v < h.MinV {
				v = h.MinV
			}
			if v > h.MaxV {
				v = h.MaxV
			}
			return v
		}
		cum += float64(c)
	}
	return h.MaxV
}

// Mean returns the exact sample mean (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Max returns the exact largest sample (0 when empty).
func (h *LogHistogram) Max() float64 {
	if h.N == 0 {
		return 0
	}
	return h.MaxV
}

// ToFixed rebuckets the histogram onto n equal-width buckets over [lo, hi)
// for report export and text rendering. Each log bucket's count is placed
// at its geometric midpoint (underflow samples at MinV), so the fixed view
// is total-preserving but only as sharp as the log buckets it came from.
func (h *LogHistogram) ToFixed(lo, hi float64, n int) (*Histogram, error) {
	f, err := NewHistogram(lo, hi, n)
	if err != nil {
		return nil, err
	}
	f.addCount(h.MinV, h.Under)
	for i, c := range h.Counts {
		mid := h.edge(i) * math.Sqrt(h.Base)
		f.addCount(mid, c)
	}
	return f, nil
}
