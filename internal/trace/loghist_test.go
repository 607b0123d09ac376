package trace

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func sortFloat64s(v []float64) { sort.Float64s(v) }

// TestLogHistogramExactAggregates pins the exact side of the aggregate:
// count, sum, min and max must match the raw samples bit for bit.
func TestLogHistogramExactAggregates(t *testing.T) {
	h := NewLogHistogram()
	vals := []float64{0.5, 0.001, 3.25, 0.5, 12, 0.25}
	var sum float64
	for _, v := range vals {
		h.Add(v)
		sum += v
	}
	if h.N != int64(len(vals)) {
		t.Errorf("N = %d, want %d", h.N, len(vals))
	}
	if h.Sum != sum {
		t.Errorf("Sum = %g, want %g", h.Sum, sum)
	}
	if h.MinV != 0.001 || h.MaxV != 12 {
		t.Errorf("Min/Max = %g/%g, want 0.001/12", h.MinV, h.MaxV)
	}
	if got := h.Mean(); got != sum/float64(len(vals)) {
		t.Errorf("Mean = %g", got)
	}
}

// TestLogHistogramQuantileVsSorted is the satellite cross-check: on random
// workload-shaped samples, bucket quantiles must match the sorted-sample
// estimator within one bucket width (a factor of Base in either direction).
func TestLogHistogramQuantileVsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 1000, 20000} {
		h := NewLogHistogram()
		vals := make([]float64, n)
		for i := range vals {
			// Lognormal-ish latencies spanning several decades.
			vals[i] = math.Exp(rng.NormFloat64()*1.5 - 3)
			h.Add(vals[i])
		}
		sorted := append([]float64(nil), vals...)
		sortFloat64s(sorted)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			got := h.Quantile(q)
			// The sorted estimator interpolates between two order
			// statistics; the bucket estimator must land within one
			// bucket width of that bracketing range (for dense samples
			// the range collapses and this is the strict "within one
			// bucket of the sorted value" check).
			pos := q * float64(n-1)
			lo := sorted[int(math.Floor(pos))] / h.Base
			hi := sorted[int(math.Ceil(pos))] * h.Base
			if got < lo || got > hi {
				t.Errorf("n=%d q=%g: bucket quantile %g outside [%g, %g] (sorted %g)",
					n, q, got, lo, hi, Quantile(sorted, q))
			}
		}
	}
}

// TestLogHistogramEdgeBuckets exercises the index math at bucket edges and
// below the resolvable floor.
func TestLogHistogramEdgeBuckets(t *testing.T) {
	h := NewLogHistogram()
	h.Add(0) // underflow
	h.Add(h.Min)
	h.Add(h.Min * h.Base)
	h.Add(h.Min * h.Base * h.Base)
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("bucketed %d samples, want 3", total)
	}
	if h.Quantile(0) != 0 {
		t.Errorf("Quantile(0) = %g, want exact min 0", h.Quantile(0))
	}
}

// TestLogHistogramEmpty pins the zero-sample behavior the report layer
// relies on: everything reads back as zero.
func TestLogHistogramEmpty(t *testing.T) {
	h := NewLogHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not all-zero: q50=%g mean=%g max=%g",
			h.Quantile(0.5), h.Mean(), h.Max())
	}
}

// TestLogHistogramToFixed checks the export path is total-preserving.
func TestLogHistogramToFixed(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{0, 0.1, 0.5, 0.9, 2.5} {
		h.Add(v)
	}
	f, err := h.ToFixed(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total() != h.N {
		t.Errorf("fixed view holds %d samples, want %d", f.Total(), h.N)
	}
	if f.Over != 1 {
		t.Errorf("Over = %d, want 1 (the 2.5 sample)", f.Over)
	}
}

// TestFixedHistogramMergeQuantile checks that the equal-width histogram's
// bucket quantiles track the sorted estimator within one bucket width, and
// that an empty histogram reads back 0.
func TestFixedHistogramMergeQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	whole, _ := NewHistogram(0, 1, 50)
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.Float64()
		whole.Add(vals[i])
	}
	w := (whole.Hi - whole.Lo) / float64(len(whole.Counts))
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := Quantiles(vals, q)[0]
		got := whole.Quantile(q)
		if math.Abs(got-want) > w {
			t.Errorf("q=%g: bucket quantile %g vs sorted %g differs by more than bucket width %g",
				q, got, want, w)
		}
	}
	empty, _ := NewHistogram(0, 1, 4)
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty Quantile = %g, want 0", empty.Quantile(0.5))
	}
}

// refAdd is the pre-table Add, kept as the reference Add must match bucket
// for bucket: math.Log for the first guess (of v and Min apart, so a huge
// v over a tiny Min cannot overflow the quotient) and a math.Pow per edge
// probe. It takes finite samples only.
func refAdd(h *LogHistogram, v float64) {
	lo := func(i int) float64 { return h.Min * math.Pow(h.Base, float64(i)) }
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
	i := int((math.Log(v) - math.Log(h.Min)) / math.Log(h.Base))
	for i > 0 && v < lo(i) {
		i--
	}
	for v >= lo(i+1) {
		i++
	}
	for len(h.Counts) <= i {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[i]++
}

// refQuantile is Quantile with every edge recomputed by math.Pow.
func refQuantile(h *LogHistogram, q float64) float64 {
	rank := q * float64(h.N-1)
	cum := float64(h.Under)
	if rank < cum {
		return h.MinV
	}
	for i, c := range h.Counts {
		if c > 0 && rank < cum+float64(c) {
			frac := math.Min((rank-cum+0.5)/float64(c), 1)
			v := h.Min * math.Pow(h.Base, float64(i)) * math.Pow(h.Base, frac)
			return math.Min(math.Max(v, h.MinV), h.MaxV)
		}
		cum += float64(c)
	}
	return h.MaxV
}

// sameAggregate fails unless the two histograms hold identical state.
func sameAggregate(t *testing.T, what string, got, want *LogHistogram) {
	t.Helper()
	if got.Under != want.Under || got.N != want.N || got.Sum != want.Sum ||
		got.MinV != want.MinV || got.MaxV != want.MaxV || got.NonFinite != want.NonFinite {
		t.Fatalf("%s: aggregates differ:\n got Under=%d N=%d Sum=%v MinV=%v MaxV=%v NonFinite=%d\nwant Under=%d N=%d Sum=%v MinV=%v MaxV=%v NonFinite=%d",
			what, got.Under, got.N, got.Sum, got.MinV, got.MaxV, got.NonFinite,
			want.Under, want.N, want.Sum, want.MinV, want.MaxV, want.NonFinite)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d buckets, reference has %d", what, len(got.Counts), len(want.Counts))
	}
	for i, c := range want.Counts {
		if got.Counts[i] != c {
			t.Fatalf("%s: bucket %d holds %d, reference %d", what, i, got.Counts[i], c)
		}
	}
}

// TestLogHistogramBucketIdentity pins the edge table to the arithmetic it
// replaced: over every bucket edge and its neighbouring floats, a seeded
// log-uniform sweep of eighteen decades, and the underflow cases, Add must
// leave exactly the state the reference leaves, and Quantile must return
// the same bits.
func TestLogHistogramBucketIdentity(t *testing.T) {
	samples := map[string][]float64{}
	edges := NewLogHistogram()
	for i := 0; i <= 700; i++ {
		e := edges.Min * math.Pow(edges.Base, float64(i))
		samples["edges"] = append(samples["edges"],
			e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(42))
	n := 1000000
	if testing.Short() {
		n = 50000
	}
	for i := 0; i < n; i++ {
		samples["log-uniform"] = append(samples["log-uniform"], math.Pow(10, -12+18*rng.Float64()))
	}
	samples["underflow"] = []float64{0, 5e-324, 2.2e-308, 1e-300, 1e-12,
		math.Nextafter(logHistMin, 0), logHistMin, math.Nextafter(logHistMin, 1)}

	for _, name := range []string{"edges", "log-uniform", "underflow"} {
		vals := samples[name]
		got, want := NewLogHistogram(), NewLogHistogram()
		for _, v := range vals {
			got.Add(v)
			refAdd(want, v)
		}
		sameAggregate(t, name, got, want)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if g, w := got.Quantile(q), refQuantile(want, q); g != w {
				t.Errorf("%s: Quantile(%g) = %v, reference %v", name, q, g, w)
			}
		}
	}
}

// TestLogHistogramSharedEdges pins the shared default edge table: default
// histograms read it from many goroutines at once (run under -race), a
// sample past its end grows a private copy, and the table itself never
// changes. A non-default histogram builds its own.
func TestLogHistogramSharedEdges(t *testing.T) {
	want := append([]float64(nil), defaultEdges...)
	if last := want[len(want)-1]; last <= 1e9 {
		t.Fatalf("default table ends at %g, below 1e9 s", last)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := NewLogHistogram()
			for _, v := range []float64{1e-6, 0.3, 42, 7e8} {
				h.Add(v)
			}
			if &h.edges[0] != &defaultEdges[0] {
				t.Error("a default histogram built its own edge table")
			}
			h.Add(1e12) // past the shared table
			if &h.edges[0] == &defaultEdges[0] {
				t.Error("growth past the shared table wrote into it")
			}
		}()
	}
	wg.Wait()
	if len(defaultEdges) != len(want) {
		t.Fatalf("shared table length %d, built with %d", len(defaultEdges), len(want))
	}
	for i, e := range want {
		if defaultEdges[i] != e {
			t.Fatalf("shared edge %d changed from %v to %v", i, e, defaultEdges[i])
		}
	}
	own := &LogHistogram{Base: 1.1, Min: logHistMin}
	own.Add(1)
	if &own.edges[0] == &defaultEdges[0] {
		t.Error("a (1.1, 1e-9) histogram reads the (1.05, 1e-9) table")
	}
}

// TestLogHistogramNonFinite pins what Add does with a sample that is not a
// number: it counts it in NonFinite and touches nothing else — these
// samples used to panic with an index out of range.
func TestLogHistogramNonFinite(t *testing.T) {
	got, want := NewLogHistogram(), NewLogHistogram()
	for _, v := range []float64{0.5, math.NaN(), 2e-12, math.Inf(1), 3, math.Inf(-1)} {
		got.Add(v)
		if v-v == 0 {
			refAdd(want, v)
		}
	}
	want.NonFinite = 3
	sameAggregate(t, "non-finite", got, want)
	if q := got.Quantile(1); q != 3 {
		t.Errorf("Quantile(1) = %v with non-finite samples refused, want the largest finite sample 3", q)
	}
}

// FuzzLogHistogramAdd feeds Add any float64 under any valid (Base, Min) —
// values outside the harness's valid ranges fall back to the defaults. Add
// must not panic; a non-finite sample only counts in NonFinite; a finite
// one leaves exactly the state the math.Log-seeded reference leaves, and
// when it is at least Min, lands in the bucket i with Min*Base^i <= v <
// Min*Base^(i+1). The committed corpus holds bucket edges and their
// neighbouring floats, denormals, MaxFloat64, the infinities, NaN and -0.
func FuzzLogHistogramAdd(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, min, v float64) {
		// Base stays clear of 1 so the bucket count, and with it the edge
		// table this one Add grows, stays in the low hundreds of thousands.
		if !(base >= 1.01 && base <= 16) {
			base = logHistBase
		}
		if !(min >= math.SmallestNonzeroFloat64 && min <= 1e300) {
			min = logHistMin
		}
		got := &LogHistogram{Base: base, Min: min}
		want := &LogHistogram{Base: base, Min: min}
		got.Add(v)
		if v-v != 0 {
			want.NonFinite = 1
		} else {
			refAdd(want, v)
		}
		sameAggregate(t, "fuzzed sample", got, want)
		if v-v != 0 || v < min {
			if len(got.Counts) != 0 {
				t.Fatalf("sample %v under Min %v was bucketed: %v", v, min, got.Counts)
			}
			return
		}
		i := len(got.Counts) - 1
		lo, hi := min*math.Pow(base, float64(i)), min*math.Pow(base, float64(i+1))
		if got.Counts[i] != 1 || !(lo <= v && v < hi) {
			t.Fatalf("sample %v (Base %v, Min %v) counted %d in bucket %d = [%v, %v)", v, base, min, got.Counts[i], i, lo, hi)
		}
	})
}

func BenchmarkLogHistogramAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1<<14)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()*1.5 - 3)
	}
	h := NewLogHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&(len(vals)-1)])
	}
}
