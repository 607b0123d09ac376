package kernels

import (
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

// Workspace is the reusable host-side scratch of one kernel executor. Every
// kernel Run needs a handful of transient buffers — the int32 output-column
// accumulator, packed-code staging vectors, canonicalization scratch, the
// breakdown tracker, and (on the engine side) the RefGEMM verification
// buffers. A Workspace owns all of them with grow-only reuse, so a worker
// that executes many bank tiles through one Workspace allocates only on the
// first tile of each shape.
//
// A Workspace is not safe for concurrent use; give each worker its own.
// The zero value is ready (NewWorkspace exists for symmetry). Kernels run
// without one transparently: a nil Request.WS falls back to a private
// Workspace for that call.
type Workspace struct {
	acc      []int32  // output column accumulator (tile M)
	wcodes   []uint32 // burst-decoded packed weight codes (wChunk)
	actCodes []int    // staging: one group's activation codes (p)
	sorted   []int    // canonicalization scratch (p)
	sperm    []int    // stable sorting permutation scratch (p)
	coefs    []int32  // LTC plane coefficients (bw)
	planeAcc []int32  // LTC per-plane partial sums (bw)
	entry    []byte   // OP(DRAM) per-lookup DMA landing pad (bo)
	st       stagedLUT
	x        bk
	refOut   []int32 // RefGEMM output scratch (M*N)
	refW     []int32 // RefGEMM decoded weights (M*K)
	refA     []int32 // RefGEMM decoded activations (K*N)
	wdecT    []int32 // weight codec decode table (Levels entries)
	adecT    []int32 // activation codec decode table (Levels entries)
	planeT   []byte  // LTC plane-bit table (Levels entries)

	// Canonicalization memo: one activation group's (column rank, Lehmer
	// rank, stable sort permutation) keyed by its packed code index. Bank
	// tiles along one grid row replay the same activation columns, so a
	// worker's arena sees every group many times.
	canonSpec lut.Spec
	canonMemo map[uint32]canonEntry
}

// canonEntry is one memoized canonicalization outcome. perm holds the
// stable sorting permutation for p <= len(perm); larger packings bypass
// the memo.
type canonEntry struct {
	col   int64
	sigma int64
	perm  [8]uint8
}

// canonMemoMax bounds the memo: workspaces live as long as their arena
// (process lifetime), and wide-key specs (up to 2^32 distinct groups)
// must not grow one worker's memo without limit. Common specs (key spaces
// up to ~2^16) never hit the bound; past it the memo resets and re-warms,
// trading a little recompute for bounded memory.
const canonMemoMax = 1 << 16

// canonicalize is Spec.CanonicalizeActsScratch memoized in the workspace:
// sperm (len p) is filled with the stable sorting permutation and the
// (col, sigma) ranks are returned; sorted (len p) is pure scratch whose
// contents are unspecified on return. Results are bit-identical to the
// uncached path; only host time changes.
func (w *Workspace) canonicalize(spec lut.Spec, actCodes, sorted, sperm []int) (col, sigma int64, err error) {
	p := spec.P
	// Bypass the memo when the permutation cannot be stored or the packed
	// key would not fit 32 bits (lut.NewSpec rejects such specs, but a
	// hand-built Spec must degrade to the direct path, not collide keys).
	if p > len(canonEntry{}.perm) || len(actCodes) != p || p*spec.Fmt.Act.Bits > 32 {
		return spec.CanonicalizeActsScratch(actCodes, sorted, sperm)
	}
	if w.canonSpec != spec || w.canonMemo == nil {
		w.canonSpec = spec
		w.canonMemo = make(map[uint32]canonEntry)
	}
	aBits := uint(spec.Fmt.Act.Bits)
	var key uint32
	for i, c := range actCodes {
		key |= uint32(c) << (uint(i) * aBits)
	}
	if e, ok := w.canonMemo[key]; ok {
		for i := 0; i < p; i++ {
			sperm[i] = int(e.perm[i])
		}
		return e.col, e.sigma, nil
	}
	col, sigma, err = spec.CanonicalizeActsScratch(actCodes, sorted, sperm)
	if err != nil {
		return 0, 0, err
	}
	e := canonEntry{col: col, sigma: sigma}
	for i, v := range sperm {
		e.perm[i] = uint8(v)
	}
	if len(w.canonMemo) >= canonMemoMax {
		clear(w.canonMemo)
	}
	w.canonMemo[key] = e
	return col, sigma, nil
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure falls back to a private workspace when the caller did not supply
// one, keeping the legacy Run(d, t) entry point allocation-compatible with
// its pre-workspace behavior.
func (w *Workspace) ensure() *Workspace {
	if w == nil {
		return &Workspace{}
	}
	return w
}

// grow returns *s resized to n elements, reallocating only when capacity
// is insufficient — the grow-only reuse policy of all workspace scratch.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// newBKWS rebinds the workspace's breakdown tracker to the DPU, replacing
// the per-run newBK allocation.
func (w *Workspace) newBK(d *pim.DPU) *bk {
	w.x = bk{d: d, last: d.Meter.Cycles}
	return &w.x
}

// Request bundles one kernel execution: the DPU to run on, the tile to
// execute, and an optional Workspace to recycle scratch through. It is the
// unit the pooled execution engine hands to shard workers.
type Request struct {
	DPU  *pim.DPU
	Tile *Tile
	WS   *Workspace
}

// decodeTable materializes a codec's full decode map into ws-backed
// scratch: tab[v] == codec.Decode(v) for every masked code v. Decode masks
// its input, so indexing with code&mask reproduces Decode bit-exactly while
// replacing a per-element method call (switch included) with one load.
func decodeTable(dst *[]int32, c quant.Codec) []int32 {
	tab := grow(dst, c.Levels())
	for i := range tab {
		tab[i] = c.Decode(uint32(i))
	}
	return tab
}

// RefGEMMInto computes the exact integer reference product of the tile's
// codes into workspace-backed scratch. The returned slice is owned by the
// workspace and valid until the next RefGEMMInto call on it.
func RefGEMMInto(ws *Workspace, t *Tile) []int32 {
	out := grow(&ws.refOut, t.M*t.N)
	clear(out)
	wt := decodeTable(&ws.wdecT, t.Fmt.Weight)
	wMask := t.Fmt.Weight.Mask()
	wv := grow(&ws.refW, t.M*t.K)
	for i, c := range t.W {
		wv[i] = wt[uint32(c)&wMask]
	}
	at := decodeTable(&ws.adecT, t.Fmt.Act)
	aMask := t.Fmt.Act.Mask()
	av := grow(&ws.refA, t.K*t.N)
	for i, c := range t.A {
		av[i] = at[uint32(c)&aMask]
	}
	refGEMM(t, wv, av, out)
	return out
}

// refGEMM is the shared triple loop of RefGEMM and RefGEMMInto.
func refGEMM(t *Tile, wv, av, out []int32) {
	if t.N == 1 {
		// Column-stripe tiles (the dominant full-grid shape) degenerate to
		// one dot product per row; the dedicated loop avoids per-k slicing.
		for m := 0; m < t.M; m++ {
			wrow := wv[m*t.K : (m+1)*t.K]
			var s int32
			for k, w := range wrow {
				s += w * av[k]
			}
			out[m] = s
		}
		return
	}
	for m := 0; m < t.M; m++ {
		wrow := wv[m*t.K : (m+1)*t.K]
		orow := out[m*t.N : (m+1)*t.N]
		for k := 0; k < t.K; k++ {
			w := wrow[k]
			if w == 0 {
				continue
			}
			arow := av[k*t.N : (k+1)*t.N]
			for n := 0; n < t.N; n++ {
				orow[n] += w * arow[n]
			}
		}
	}
}

// VerifyTile checks t.O bit-exactly against the integer reference,
// recycling the workspace's verification scratch. It is the pooled
// counterpart of comparing against RefGEMM with reflect.DeepEqual.
func VerifyTile(ws *Workspace, t *Tile) bool {
	ref := RefGEMMInto(ws, t)
	if len(ref) != len(t.O) {
		return false
	}
	for i, v := range ref {
		if t.O[i] != v {
			return false
		}
	}
	return true
}
