// Package perm provides the permutation and multiset combinatorics that
// underpin LoCaLUT's canonical and reordering LUTs.
//
// Three bijections are implemented:
//
//   - Lehmer ranking of permutations of [0,n): Rank / Unrank. The reordering
//     LUT uses the Lehmer rank of the stable-sort permutation of an
//     activation vector as its column index (p! columns).
//   - Combinatorial-number-system ranking of non-decreasing sequences
//     (multisets): MultisetRank / MultisetUnrank. The canonical LUT uses the
//     multiset rank of the sorted activation vector as its column index
//     (C(A+p-1, p) columns, Eq. 1 of the paper).
//   - Stable sorting permutations: SortPerm returns the unique stable
//     permutation that sorts a vector, so equal activation values always map
//     to the same reordering-LUT column.
package perm

import (
	"fmt"
	"math"
	"math/big"
)

// MaxFactorialN is the largest n for which Factorial does not overflow int64.
const MaxFactorialN = 20

// Factorial returns n! for 0 <= n <= MaxFactorialN.
// It panics on out-of-range input; packing degrees in LoCaLUT never exceed
// p_DRAM < 10, so a panic here always indicates a programming error.
func Factorial(n int) int64 {
	if n < 0 || n > MaxFactorialN {
		panic(fmt.Sprintf("perm: Factorial(%d) out of range [0,%d]", n, MaxFactorialN))
	}
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// binomTableN/binomTableK bound the precomputed Pascal triangle that makes
// small Binomial calls a table load. MultisetRank calls Binomial once per
// element of every canonicalized activation group — the innermost host-side
// loop of packed-LUT staging — with n < levels+p (<= 264 for 8-bit codecs)
// and k <= p+1, all well inside the table.
// The K bound keeps every table entry exact: C(299, 10) ~ 1.4e18 fits
// int64, C(299, 11) would not.
const (
	binomTableN = 300
	binomTableK = 11
)

var binomTable = func() *[binomTableN][binomTableK]int64 {
	var t [binomTableN][binomTableK]int64
	for n := 0; n < binomTableN; n++ {
		t[n][0] = 1
		for k := 1; k < binomTableK && k <= n; k++ {
			if k == n {
				t[n][k] = 1
			} else {
				t[n][k] = t[n-1][k-1] + t[n-1][k] // exact: bounds chosen to fit int64
			}
		}
	}
	return &t
}()

// Binomial returns C(n, k) computed exactly in int64, saturating at
// math.MaxInt64 on overflow. Saturation (rather than panic) lets capacity
// planning reason about absurdly large LUTs (e.g. W1A16 at p > 1) without
// special cases: a saturated size simply never fits any budget.
func Binomial(n, k int) int64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	if n < binomTableN && k < binomTableK {
		return binomTable[n][k]
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		// c = c * (n-i) / (i+1), exact because c always holds C(n, i+1)
		// after the division. If the intermediate product would overflow,
		// fall back to exact big-integer arithmetic: the result itself may
		// still fit in int64 even when an intermediate does not.
		hi := int64(n - i)
		if c > math.MaxInt64/hi {
			return binomialBig(n, k)
		}
		c = c * hi / int64(i+1)
	}
	return c
}

// binomialBig computes C(n, k) exactly with math/big and saturates at
// math.MaxInt64. It is only reached for operands large enough that the fast
// int64 path risks intermediate overflow, which never happens for the LUT
// shapes LoCaLUT actually constructs.
func binomialBig(n, k int) int64 {
	var z big.Int
	z.Binomial(int64(n), int64(k))
	if !z.IsInt64() {
		return math.MaxInt64
	}
	return z.Int64()
}

// Rank returns the Lehmer (lexicographic) rank of a permutation of [0, n)
// in [0, n!). It returns an error if p is not a permutation.
func Rank(p []int) (int64, error) {
	n := len(p)
	if n > MaxFactorialN {
		return 0, fmt.Errorf("perm: Rank: length %d exceeds %d", n, MaxFactorialN)
	}
	var seen [MaxFactorialN]bool
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return 0, fmt.Errorf("perm: Rank: %v is not a permutation of [0,%d)", p, n)
		}
		seen[v] = true
	}
	var r int64
	for i := 0; i < n; i++ {
		// Count elements after position i that are smaller than p[i].
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		r += int64(smaller) * Factorial(n-1-i)
	}
	return r, nil
}

// MustRank is Rank for inputs known to be valid permutations.
func MustRank(p []int) int64 {
	r, err := Rank(p)
	if err != nil {
		panic(err)
	}
	return r
}

// Unrank returns the permutation of [0, n) with Lehmer rank r, the inverse
// of Rank. It panics if r is outside [0, n!).
func Unrank(r int64, n int) []int {
	if r < 0 || r >= Factorial(n) {
		panic(fmt.Sprintf("perm: Unrank(%d, %d): rank out of range", r, n))
	}
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		f := Factorial(n - 1 - i)
		idx := r / f
		r %= f
		out[i] = avail[idx]
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return out
}

// SortPerm returns the stable sorting permutation of v: sorted[i] = v[p[i]],
// with sorted non-decreasing and ties broken by original position. The
// stability makes p a deterministic function of v, which is what lets the
// reordering LUT be precomputed: every occurrence of the same activation
// vector selects the same column.
func SortPerm(v []int) (sorted []int, p []int) {
	sorted = make([]int, len(v))
	p = make([]int, len(v))
	SortPermInto(v, sorted, p)
	return sorted, p
}

// SortPermInto is SortPerm with caller-provided destinations: sorted and p
// must each have length len(v). It allocates nothing, which is what lets
// per-group canonicalization run inside an allocation-free staging loop.
// The stable insertion sort produces the same unique stable permutation as
// any other stable sort (vectors here are p <= ~8 elements long, where
// insertion sort is also the fastest option).
func SortPermInto(v, sorted, p []int) {
	n := len(v)
	if len(sorted) != n || len(p) != n {
		panic(fmt.Sprintf("perm: SortPermInto: destination lengths %d/%d != %d",
			len(sorted), len(p), n))
	}
	for i := range p {
		p[i] = i
	}
	for i := 1; i < n; i++ {
		pi := p[i]
		vi := v[pi]
		j := i - 1
		for j >= 0 && v[p[j]] > vi {
			p[j+1] = p[j]
			j--
		}
		p[j+1] = pi
	}
	for i, idx := range p {
		sorted[i] = v[idx]
	}
}

// Apply permutes v by p: out[i] = v[p[i]]. It panics if lengths differ.
func Apply(p, v []int) []int {
	if len(p) != len(v) {
		panic(fmt.Sprintf("perm: Apply: length mismatch %d vs %d", len(p), len(v)))
	}
	out := make([]int, len(v))
	for i, idx := range p {
		out[i] = v[idx]
	}
	return out
}

// MultisetCount returns the number of non-decreasing length-p sequences over
// the alphabet [0, a), i.e. C(a+p-1, p) — the canonical LUT column count of
// Eq. 1. The result saturates at math.MaxInt64.
func MultisetCount(a, p int) int64 {
	if a <= 0 || p < 0 {
		return 0
	}
	return Binomial(a+p-1, p)
}

// MultisetRank maps a non-decreasing sequence v over [0, a) to its rank in
// [0, MultisetCount(a, len(v))). The bijection goes through the standard
// trick of adding i to v[i] (turning a multiset into a strictly increasing
// combination) and then ranking the combination in colexicographic order
// with the combinatorial number system: rank = sum_i C(u_i, i+1).
func MultisetRank(v []int, a int) (int64, error) {
	for i, x := range v {
		if x < 0 || x >= a {
			return 0, fmt.Errorf("perm: MultisetRank: element %d=%d outside alphabet [0,%d)", i, x, a)
		}
		if i > 0 && x < v[i-1] {
			return 0, fmt.Errorf("perm: MultisetRank: input %v not sorted", v)
		}
	}
	var r int64
	for i, x := range v {
		u := x + i // strictly increasing in [0, a+p-1)
		r += Binomial(u, i+1)
	}
	return r, nil
}

// MultisetUnrank is the inverse of MultisetRank: it returns the
// non-decreasing length-p sequence over [0, a) with the given rank.
// It panics if r is out of range.
func MultisetUnrank(r int64, a, p int) []int {
	total := MultisetCount(a, p)
	if r < 0 || r >= total {
		panic(fmt.Sprintf("perm: MultisetUnrank(%d, a=%d, p=%d): rank out of [0,%d)", r, a, p, total))
	}
	u := make([]int, p)
	// Greedily peel off the largest combinatorial digit first.
	for i := p; i >= 1; i-- {
		// Find the largest c with C(c, i) <= r.
		c := i - 1
		for Binomial(c+1, i) <= r {
			c++
		}
		u[i-1] = c
		r -= Binomial(c, i)
	}
	out := make([]int, p)
	for i := range u {
		out[i] = u[i] - i
	}
	return out
}
