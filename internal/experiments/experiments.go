package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/ais-snu/localut/internal/banksim"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/energy"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/trace"
	"github.com/ais-snu/localut/internal/workload"
)

// Aliases keep the figure drivers readable.
type dnnInference = dnn.InferenceReport
type dnnPhase = dnn.PhaseReport

// newRunner builds a dnn runner sharing the suite's engine.
func (s *Suite) newRunner(model string, f quant.Format, v kernels.Variant) *dnn.Runner {
	r := dnn.NewRunner(s.modelConfig(model), f, v)
	r.Engine = s.Engine
	r.Seed = s.Seed
	return r
}

// newRand returns a seeded source for measurement sampling.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Suite bundles the shared machine configuration of all experiments.
type Suite struct {
	Engine *gemm.Engine
	Energy energy.Model
	Seed   int64
	// Quick shrinks workloads for unit tests and smoke runs; the sweep
	// structure (who is compared against whom) is unchanged.
	Quick bool
	// Parallelism is the worker-pool size for running figure drivers and
	// bank grids concurrently (0 = NumCPU, 1 = serial). Every driver is
	// deterministic — seeded workloads, shard-ordered aggregation — so the
	// regenerated numbers are identical at any setting.
	Parallelism int
	// Mode selects the engine's execution backend for every GEMM the
	// figures run. CyclesOnly regenerates identical numbers (the figures
	// consume only cycle/energy models, like the paper's) without the
	// byte-level functional simulation or its per-run verification. Like
	// Parallelism, it is a plain field: RunFigure and All apply it to the
	// engine when they run.
	Mode kernels.Mode
}

// syncMode pushes the suite-level mode into the engine before a run.
func (s *Suite) syncMode() { s.Engine.Exec.Mode = s.Mode }

// kernelTile builds the tile a direct (engine-bypassing) kernel run needs
// under the suite's mode: seeded data in Functional mode, shape only in
// CyclesOnly. Pair it with kernelDPU.
func (s *Suite) kernelTile(m, k, n int, f quant.Format) (*kernels.Tile, error) {
	if s.Mode == kernels.CyclesOnly {
		return kernels.NewShapeTile(m, k, n, f)
	}
	pair := workload.NewGEMMPair(m, k, n, f, s.Seed)
	return kernels.NewTile(m, k, n, f, pair.W.Codes, pair.A.Codes)
}

// kernelDPU builds the DPU for a direct kernel run under the suite's mode.
func (s *Suite) kernelDPU(cfg *pim.Config) *pim.DPU {
	return kernels.DPUForMode(cfg, s.Mode)
}

// New returns the full-scale suite on the paper's testbed configuration.
func New() *Suite {
	return &Suite{Engine: gemm.NewEngine(), Energy: energy.Default(), Seed: 1}
}

// NewQuick returns a reduced-size suite for tests.
func NewQuick() *Suite {
	s := New()
	s.Quick = true
	return s
}

// Result is one regenerated figure.
type Result struct {
	// ID names the experiment ("fig09"), Caption describes it.
	ID, Caption string
	// Table holds the regenerated rows/series.
	Table *trace.Table
	// Notes carry headline aggregates with the paper's value alongside.
	Notes []string
	// Values exposes key metrics for tests and EXPERIMENTS.md.
	Values map[string]float64
}

func newResult(id, caption string, t *trace.Table) *Result {
	return &Result{ID: id, Caption: caption, Table: t, Values: map[string]float64{}}
}

// notef appends a formatted headline note.
func (r *Result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes the result as markdown.
func (r *Result) Render(sb *strings.Builder) {
	fmt.Fprintf(sb, "\n## %s — %s\n", strings.ToUpper(r.ID), r.Caption)
	r.Table.Render(sb)
	for _, n := range r.Notes {
		fmt.Fprintf(sb, "- %s\n", n)
	}
}

// scale divides a dimension in Quick mode, keeping a sane floor.
func (s *Suite) scale(v, quick int) int {
	if s.Quick {
		return quick
	}
	return v
}

// runGEMM executes one GEMM under the paper's context-parallel tiling.
func (s *Suite) runGEMM(m, k, n int, f quant.Format, v kernels.Variant, opt gemm.Options) (*gemm.Report, error) {
	opt.Variant = v
	opt.NSplitOnly = true
	pair, err := s.Engine.NewPair(m, k, n, f, s.Seed)
	if err != nil {
		return nil, err
	}
	return s.Engine.Run(pair, opt)
}

// clone returns a suite whose engine can be used concurrently with the
// original's (shared decision cache, private configuration).
func (s *Suite) clone() *Suite {
	c := *s
	c.Engine = s.Engine.Clone()
	return &c
}

// figDrivers lists every figure driver in paper order.
var figDrivers = []struct {
	name string
	fn   func(*Suite) (*Result, error)
}{
	{"fig03", (*Suite).Fig03}, {"fig06", (*Suite).Fig06}, {"fig09", (*Suite).Fig09},
	{"fig10", (*Suite).Fig10}, {"fig11", (*Suite).Fig11}, {"fig12", (*Suite).Fig12},
	{"fig13", (*Suite).Fig13}, {"fig14", (*Suite).Fig14}, {"fig15", (*Suite).Fig15},
	{"fig16", (*Suite).Fig16}, {"fig17", (*Suite).Fig17}, {"fig18", (*Suite).Fig18},
	{"fig19", (*Suite).Fig19}, {"fig20", (*Suite).Fig20}, {"fig21", (*Suite).Fig21},
}

// RunFigure regenerates a single figure by id ("fig09"); figDrivers is the
// sole driver registry, shared with All.
func (s *Suite) RunFigure(id string) (*Result, error) {
	s.syncMode()
	for _, d := range figDrivers {
		if d.name == id {
			return d.fn(s)
		}
	}
	return nil, fmt.Errorf("unknown figure %q (fig03..fig21)", id)
}

// All regenerates every figure, dispatching the independent drivers over
// the suite's worker pool. Each driver runs on a cloned suite so no
// configuration state is shared; results come back in paper order whatever
// the scheduling.
func (s *Suite) All() ([]*Result, error) {
	s.syncMode()
	out := make([]*Result, len(figDrivers))
	err := banksim.ForEachShard(len(figDrivers), s.Parallelism, func(i int) error {
		r, err := figDrivers[i].fn(s.clone())
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", figDrivers[i].name, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReportMarkdown renders a full run as one markdown document.
func ReportMarkdown(results []*Result) string {
	var sb strings.Builder
	sb.WriteString("# LoCaLUT reproduction — regenerated evaluation figures\n")
	for _, r := range results {
		r.Render(&sb)
	}
	return sb.String()
}
