// Command localut-bench regenerates every table and figure of the paper's
// evaluation section on the simulated PIM system and writes a markdown
// report (stdout by default). It can also run a standalone full-grid GEMM
// sweep: every bank tile of all six designs simulated and verified, sharded
// across host cores.
//
// Usage:
//
//	localut-bench [-quick] [-fig fig09] [-j N] [-cycles-only] [-v] [-o report.md]
//	localut-bench -sweep MxKxN [-fmt W1A3] [-j N] [-cycles-only] [-compare]
//	localut-bench ... [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -j sets the host worker-pool size (0 = one worker per CPU core, 1 =
// serial). Results are bit-identical at any -j; only wall-clock changes.
// -cycles-only switches to the analytic cost backend: kernels charge the
// identical cycle/event sequence without moving bytes, so figures and
// sweeps regenerate the same numbers much faster (outputs are not computed,
// so per-tile verification is skipped).
// -compare runs the sweep serially, in parallel and in cycles-only mode,
// checks that the simulated results agree across all three, and reports the
// host speedups.
// -v prints LUT table-build cache statistics after the run.
// -cpuprofile / -memprofile stream a pprof CPU profile and write a post-GC
// heap snapshot, so perf changes ship with evidence.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut/cmd/internal/cli"
	"github.com/ais-snu/localut/internal/experiments"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/prof"
	"github.com/ais-snu/localut/internal/quant"
)

func main() { cli.Main("localut-bench", run) }

func run() error {
	quick := flag.Bool("quick", false, "run reduced-size workloads")
	fig := flag.String("fig", "", "run a single figure (e.g. fig09); empty runs all")
	out := flag.String("o", "", "write the markdown report to this file instead of stdout")
	par := flag.Int("j", 0, "worker-pool size (0 = NumCPU, 1 = serial)")
	sweep := flag.String("sweep", "", "run a full-grid GEMM sweep of all designs on MxKxN (e.g. 768x768x128)")
	fmtName := flag.String("fmt", "W1A3", "quantization format for -sweep")
	compare := flag.Bool("compare", false, "with -sweep: run serial, parallel and cycles-only, verify identical cycles, report speedups")
	cyclesOnly := flag.Bool("cycles-only", false, "use the analytic cycles-only backend (identical cycles, no functional simulation)")
	verbose := flag.Bool("v", false, "print LUT cache statistics after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a post-GC pprof heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	mode := kernels.Functional
	if *cyclesOnly {
		mode = kernels.CyclesOnly
	}

	if *sweep != "" {
		if err := runSweep(*sweep, *fmtName, *par, mode, *compare); err != nil {
			return err
		}
		cacheStats(*verbose)
		return nil
	}

	s := experiments.New()
	if *quick {
		s = experiments.NewQuick()
	}
	s.Parallelism = *par
	s.Mode = mode

	var results []*experiments.Result
	start := time.Now()
	if *fig == "" {
		if results, err = s.All(); err != nil {
			return err
		}
	} else {
		r, err := s.RunFigure(strings.ToLower(*fig))
		if err != nil {
			return err
		}
		results = []*experiments.Result{r}
	}
	doc := experiments.ReportMarkdown(results)
	doc += fmt.Sprintf("\n---\nGenerated in %.1fs (quick=%v, j=%d, mode=%s)\n",
		time.Since(start).Seconds(), *quick, *par, mode)

	if *out == "" {
		fmt.Print(doc)
		cacheStats(*verbose)
		return nil
	}
	if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d figures, %.1fs)\n", *out, len(results), time.Since(start).Seconds())
	cacheStats(*verbose)
	return nil
}

// cacheStats reports the process-wide LUT table cache so table-build cost is
// observable: every miss built a table, every hit shared one.
func cacheStats(verbose bool) {
	if !verbose {
		return
	}
	hits, misses, bytes := lut.CacheStats()
	fmt.Fprintf(os.Stderr, "lut cache: %d hits, %d misses, %.1f MiB resident\n",
		hits, misses, float64(bytes)/(1<<20))
}

// parseShape parses "768x768x128", rejecting partial matches.
func parseShape(s string) (m, k, n int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad -sweep shape %q (want MxKxN)", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		if dims[i], err = strconv.Atoi(p); err != nil {
			return 0, 0, 0, fmt.Errorf("bad -sweep shape %q (want MxKxN): %v", s, err)
		}
		if dims[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("bad -sweep shape %q: dimensions must be positive", s)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// runSweep executes the full-grid design sweep, optionally comparing
// serial, parallel and cycles-only execution.
func runSweep(shape, fmtName string, par int, mode kernels.Mode, compare bool) error {
	m, k, n, err := parseShape(shape)
	if err != nil {
		return err
	}
	f, err := quant.ParseFormat(fmtName)
	if err != nil {
		return err
	}

	if !compare {
		start := time.Now()
		rows, err := experiments.GEMMSweep(m, k, n, f, par, mode)
		if err != nil {
			return err
		}
		printRows(shape, f.Name(), rows)
		fmt.Printf("\nhost wall-clock: %.2fs (j=%d, mode=%s)\n", time.Since(start).Seconds(), par, mode)
		return nil
	}

	workers := par
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fmt.Printf("full-grid sweep %s %s: serial vs %d workers vs cycles-only\n\n", shape, f.Name(), workers)

	// Untimed warm-up: builds the process-wide LUT tables so no timed
	// functional pass pays construction costs the others skip.
	if _, err := experiments.GEMMSweep(m, k, n, f, workers, kernels.Functional); err != nil {
		return err
	}

	t0 := time.Now()
	serial, err := experiments.GEMMSweep(m, k, n, f, 1, kernels.Functional)
	if err != nil {
		return err
	}
	serialWall := time.Since(t0).Seconds()

	t1 := time.Now()
	parallel, err := experiments.GEMMSweep(m, k, n, f, workers, kernels.Functional)
	if err != nil {
		return err
	}
	parallelWall := time.Since(t1).Seconds()

	t2 := time.Now()
	analytic, err := experiments.GEMMSweep(m, k, n, f, workers, kernels.CyclesOnly)
	if err != nil {
		return err
	}
	analyticWall := time.Since(t2).Seconds()

	printRows(shape, f.Name(), parallel)

	identical := true
	for i := range serial {
		if serial[i] != parallel[i] {
			identical = false
			fmt.Printf("\nMISMATCH at %s (serial vs parallel):\n  serial   %+v\n  parallel %+v\n",
				serial[i].Design, serial[i], parallel[i])
		}
		if !serial[i].SameCost(analytic[i]) {
			identical = false
			fmt.Printf("\nMISMATCH at %s (functional vs cycles-only):\n  functional  %+v\n  cycles-only %+v\n",
				serial[i].Design, serial[i], analytic[i])
		}
	}
	fmt.Printf("\nserial:      %.3fs wall-clock (j=1, functional)\n", serialWall)
	fmt.Printf("parallel:    %.3fs wall-clock (j=%d, functional)\n", parallelWall, workers)
	fmt.Printf("cycles-only: %.3fs wall-clock (j=%d)\n", analyticWall, workers)
	fmt.Printf("parallel speedup:    %.2fx over serial\n", serialWall/parallelWall)
	fmt.Printf("cycles-only speedup: %.2fx over functional parallel, %.2fx over serial\n",
		parallelWall/analyticWall, serialWall/analyticWall)
	if identical {
		fmt.Println("simulated results: identical across serial, parallel and cycles-only")
	} else {
		return fmt.Errorf("sweep modes diverged")
	}
	return nil
}

// printRows renders the sweep as a markdown table.
func printRows(shape, format string, rows []experiments.SweepRow) {
	fmt.Printf("| design | p | k | streaming | banks | kernel cycles | simulated s | verified |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Printf("| %s | %d | %d | %v | %d | %d | %.6f | %v |\n",
			r.Design, r.P, r.SliceK, r.Streaming, r.Banks, r.KernelCycles, r.SimSeconds, r.Verified)
	}
	fmt.Printf("\n(%s, %s, every bank tile accounted)\n", shape, format)
}
