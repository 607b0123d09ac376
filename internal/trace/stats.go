package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice by linear interpolation between the two bracketing order
// statistics (the "type 7" estimator). It is a pure function of the sorted
// values, so aggregations built on it are bit-reproducible: same samples,
// same quantiles, whatever order the samples arrived in. An empty slice
// yields 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Quantiles sorts a copy of vals once and evaluates every requested
// quantile against it. The input is not modified.
func Quantiles(vals []float64, qs ...float64) []float64 {
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = Quantile(sorted, q)
	}
	return out
}

// Histogram counts samples into fixed-width buckets over [Lo, Hi).
// Out-of-range samples land in Under/Over so Total always equals the number
// of Add calls. Counting is exact integer arithmetic: two histograms fed
// the same multiset of samples are identical regardless of insertion order.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	Under  int64 // samples < Lo
	Over   int64 // samples >= Hi
}

// NewHistogram builds a histogram with n equal-width buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 || !(hi > lo) {
		return nil, fmt.Errorf("trace: bad histogram bounds [%g, %g) with %d buckets", lo, hi, n)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}, nil
}

// Add counts one sample.
func (h *Histogram) Add(v float64) {
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // guard the v ~ Hi rounding edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// addCount counts c identical samples at value v in one step.
func (h *Histogram) addCount(v float64, c int64) {
	switch {
	case c <= 0:
		return
	case v < h.Lo:
		h.Under += c
	case v >= h.Hi:
		h.Over += c
	default:
		i := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // guard the v ~ Hi rounding edge
			i = len(h.Counts) - 1
		}
		h.Counts[i] += c
	}
}

// Total returns the number of samples added, including out-of-range ones.
func (h *Histogram) Total() int64 {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts:
// the sample at fractional rank q*(Total-1) is located by cumulative count
// and interpolated linearly inside its bucket. Under-range samples
// evaluate to Lo and over-range samples to Hi (their true values were not
// retained), so the estimate is exact to within one bucket width for
// in-range data. An empty histogram yields 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1)
	cum := float64(h.Under)
	if rank < cum {
		return h.Lo
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			// The bucket's c samples sit at fractional positions
			// (k+0.5)/c across its width; interpolate the rank among them.
			frac := (rank - cum + 0.5) / float64(c)
			if frac > 1 {
				frac = 1
			}
			return h.Lo + float64(i)*w + frac*w
		}
		cum += float64(c)
	}
	return h.Hi
}

// BucketBounds returns bucket i's half-open interval [lo, hi).
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}

// Render writes the histogram as aligned text with proportional bars.
func (h *Histogram) Render(w io.Writer) error {
	var peak int64
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	const barWidth = 40
	for i, c := range h.Counts {
		lo, hi := h.BucketBounds(i)
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", int(c*barWidth/peak))
		}
		if _, err := fmt.Fprintf(w, "[%12.6g, %12.6g) %8d %s\n", lo, hi, c, bar); err != nil {
			return err
		}
	}
	if h.Under > 0 || h.Over > 0 {
		if _, err := fmt.Fprintf(w, "out of range: %d under, %d over\n", h.Under, h.Over); err != nil {
			return err
		}
	}
	return nil
}
