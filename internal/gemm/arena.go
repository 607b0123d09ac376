package gemm

import (
	"sync"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/workload"
)

// execArena is one worker's persistent execution context for functional
// bank simulation: the DPU (whose MRAM/WRAM recycle their segments across
// kernel runs), the kernel Workspace (accumulators, staging and
// verification scratch), and the reusable tile with its grow-only operand
// storage. A shard worker acquires one arena, pushes every bank tile it
// owns through it, and returns it to the engine pool — so a full-grid run
// over thousands of tiles allocates a handful of arenas once and nothing
// per tile in steady state.
//
// Determinism survives recycling because nothing in an arena carries
// information between tiles: the DPU is Reset by every kernel run, recycled
// memory is re-zeroed on allocation, the tile operands are fully
// overwritten by tileFor, and the workspace holds only scratch that kernels
// fully write before reading.
type execArena struct {
	cfg  pim.Config // config value the DPU was built against
	dpu  *pim.DPU
	ws   *kernels.Workspace
	tile kernels.Tile
	w    []uint8
	a    []uint8
	o    []int32
	req  kernels.Request
}

// bind points the arena at the engine's machine configuration, rebuilding
// the DPU only when the configuration value actually changed (arenas are
// shared across Clone'd engines, which may differ in Cfg).
func (ar *execArena) bind(cfg *pim.Config) {
	if ar.dpu == nil || ar.cfg != *cfg {
		ar.cfg = *cfg
		ar.dpu = pim.NewDPU(cfg)
		return
	}
	// Same machine by value: rebind the pointer so charges use the caller's
	// live Config (identical numbers either way).
	ar.dpu.Cfg = cfg
}

// tileFor assembles the bank tile at task t from the pair into the arena's
// reusable storage, zeroing its output as kernels.NewTile does, without
// allocating once the slices have grown to the shape.
func (ar *execArena) tileFor(pair *workload.GEMMPair, t bankTask) *kernels.Tile {
	if cap(ar.w) < t.tileM*pair.K {
		ar.w = make([]uint8, t.tileM*pair.K)
	}
	w := ar.w[:t.tileM*pair.K]
	for m := 0; m < t.tileM; m++ {
		src := (t.m0 + m) * pair.K
		copy(w[m*pair.K:(m+1)*pair.K], pair.W.Codes[src:src+pair.K])
	}
	if cap(ar.a) < pair.K*t.tileN {
		ar.a = make([]uint8, pair.K*t.tileN)
	}
	a := ar.a[:pair.K*t.tileN]
	for k := 0; k < pair.K; k++ {
		src := k*pair.N + t.n0
		copy(a[k*t.tileN:(k+1)*t.tileN], pair.A.Codes[src:src+t.tileN])
	}
	if cap(ar.o) < t.tileM*t.tileN {
		ar.o = make([]int32, t.tileM*t.tileN)
	}
	o := ar.o[:t.tileM*t.tileN]
	clear(o)
	ar.tile = kernels.Tile{M: t.tileM, K: pair.K, N: t.tileN, Fmt: pair.Fmt, W: w, A: a, O: o}
	return &ar.tile
}

// request returns the arena's kernel Request pointed at the tile.
func (ar *execArena) request(tile *kernels.Tile) *kernels.Request {
	ar.req = kernels.Request{DPU: ar.dpu, Tile: tile, WS: ar.ws}
	return &ar.req
}

// refCache memoizes full integer reference products per pair. The
// reference is variant-independent and bank tiles partition the output
// exactly, so one O(MKN) reference computation verifies every bank tile of
// every design run on the same pair — instead of one O(tile) ref GEMM
// (with its own operand decode) per tile per design. Keyed by pair
// identity (workload pairs are immutable after construction) and bounded:
// past refCacheMax pairs the cache clears, so long mixed-pair batch
// streams cannot pin products — or their pairs — forever.
type refCache struct {
	mu  sync.Mutex
	out map[*workload.GEMMPair][]int32
}

// refCacheMax bounds retained reference products (and the pairs their keys
// pin). A RunBatch's worth of concurrent members fits comfortably.
const refCacheMax = 32

// product returns the full M x N reference product of the pair. The
// compute runs outside the lock so concurrent batch members working on
// different pairs never serialize on each other's O(MKN) reference; two
// members racing on the same fresh pair may compute it twice, which is
// benign (identical values, one retained). The returned slice is shared
// and must be treated as read-only.
func (c *refCache) product(pair *workload.GEMMPair) ([]int32, error) {
	c.mu.Lock()
	if out, ok := c.out[pair]; ok {
		c.mu.Unlock()
		return out, nil
	}
	c.mu.Unlock()

	full, err := fullTile(pair)
	if err != nil {
		return nil, err
	}
	out := kernels.RefGEMM(full)

	c.mu.Lock()
	if c.out == nil {
		c.out = make(map[*workload.GEMMPair][]int32)
	} else if len(c.out) >= refCacheMax {
		clear(c.out)
	}
	c.out[pair] = out
	c.mu.Unlock()
	return out, nil
}

// verifyAgainst checks one bank tile's output against its window of the
// full reference product.
func verifyAgainst(ref []int32, pairN int, t bankTask, out []int32) bool {
	for m := 0; m < t.tileM; m++ {
		row := ref[(t.m0+m)*pairN+t.n0 : (t.m0+m)*pairN+t.n0+t.tileN]
		got := out[m*t.tileN : (m+1)*t.tileN]
		for n, v := range row {
			if got[n] != v {
				return false
			}
		}
	}
	return true
}

// arenaPool is an unbounded free list of execution arenas shared by an
// engine and all its clones. Unlike sync.Pool it never drops members under
// GC pressure, so steady-state execution stays allocation-free; the pool
// size is bounded by the maximum worker count ever in flight at once.
type arenaPool struct {
	mu   sync.Mutex
	free []*execArena
}

// get pops an arena (or builds one) bound to the engine's configuration.
func (p *arenaPool) get(cfg *pim.Config) *execArena {
	var ar *execArena
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ar = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if ar == nil {
		ar = &execArena{ws: kernels.NewWorkspace()}
	}
	ar.bind(cfg)
	return ar
}

// put returns an arena to the free list.
func (p *arenaPool) put(ar *execArena) {
	if ar == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, ar)
	p.mu.Unlock()
}
