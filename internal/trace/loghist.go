package trace

import (
	"fmt"
	"math"
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
// index, filled on first use by the one expression that defines an edge, so
// Add costs a single math.Log for the first guess plus table compares.
type LogHistogram struct {
	Base   float64 // bucket width ratio, > 1
	Min    float64 // lower edge of bucket 0, > 0
	Counts []int64 // Counts[i] covers [Min*Base^i, Min*Base^(i+1)); grown on demand
	Under  int64   // samples < Min (zeros and denormals)
	N      int64   // total samples
	Sum    float64 // exact running sum, in insertion order
	MinV   float64 // exact smallest sample (valid when N > 0)
	MaxV   float64 // exact largest sample (valid when N > 0)

	edges []float64 // edges[i] = Min*Base^i, grown on demand
	// 1/math.Log(Base) and math.Log(Min), cached on first Add.
	invLogBase, logMin float64
}

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
	for n := len(h.edges); n <= i; n++ {
		h.edges = append(h.edges, h.Min*math.Pow(h.Base, float64(n)))
	}
}

// Add counts one sample.
func (h *LogHistogram) Add(v float64) {
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
	if h.invLogBase == 0 {
		h.invLogBase, h.logMin = 1/math.Log(h.Base), math.Log(h.Min)
	}
	i := int((math.Log(v) - h.logMin) * h.invLogBase)
	// Float log can land one bucket off at the edges; nudge until
	// edge(i) <= v < edge(i+1) holds exactly.
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

// Merge adds other's samples into h. Both histograms must share Base and
// Min so bucket i means the same interval on each side.
func (h *LogHistogram) Merge(other *LogHistogram) error {
	if other.Base != h.Base || other.Min != h.Min {
		return fmt.Errorf("trace: merging log histogram base=%g min=%g into base=%g min=%g",
			other.Base, other.Min, h.Base, h.Min)
	}
	if other.N == 0 {
		return nil
	}
	if h.N == 0 || other.MinV < h.MinV {
		h.MinV = other.MinV
	}
	if h.N == 0 || other.MaxV > h.MaxV {
		h.MaxV = other.MaxV
	}
	h.N += other.N
	h.Sum += other.Sum
	h.Under += other.Under
	for len(h.Counts) < len(other.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	return nil
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
