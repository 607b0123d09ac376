// Command localut-gemm runs a single GEMM on the simulated PIM system —
// the equivalent of the paper artifact's script.h entry point: pick a
// matrix shape, a quantization format, a design and optionally a packing
// degree, and get execution time plus a functionality check.
//
// Usage:
//
//	localut-gemm -m 3072 -k 768 -n 128 -fmt W1A3 -design LoCaLUT [-p 8] [-slicek 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/cli"
)

func main() {
	cli.Main("localut-gemm", func() error { return run(os.Args[1:], os.Stdout) })
}

// run is the command: it parses args, prints the comparison table to out
// and returns an error for bad input or when no design could run.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("localut-gemm", flag.ExitOnError)
	m := fs.Int("m", 768, "weight rows M")
	k := fs.Int("k", 768, "reduction dimension K")
	n := fs.Int("n", 128, "activation columns N")
	fmtName := fs.String("fmt", "W1A3", "quantization format (W1A3, W1A4, W2A2, W4A4)")
	design := fs.String("design", "all", "design: naive, ltc, op, oplc, oplcrc, localut, all")
	p := fs.Int("p", 0, "force packing degree (0 = cost model)")
	sliceK := fs.Int("slicek", 0, "force slice batch k (0 = cost model)")
	stream := fs.Bool("stream", false, "force slice streaming (with -p)")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args) // ExitOnError: a bad flag exits here

	f, err := localut.ParseFormat(*fmtName)
	if err != nil {
		return err
	}
	sys := localut.NewSystem(localut.WithSeed(*seed))

	opts := []localut.GEMMOption{localut.WithPaperTiling()}
	if *p > 0 {
		opts = append(opts, localut.WithPackingDegree(*p))
	}
	if *sliceK > 0 {
		opts = append(opts, localut.WithSliceK(*sliceK))
	}
	if *stream {
		opts = append(opts, localut.WithStreaming())
	}

	// The header states the plan the LoCaLUT row runs, forced options
	// included; a plan error does not stop the other designs.
	header := fmt.Sprintf("shape (%d, %d, %d) %s — LoCaLUT plan: ", *m, *k, *n, f.Name())
	if plan, err := sys.ChoosePlan(f, *m, *k, *n, opts...); err != nil {
		fmt.Fprintf(out, "%serror: %v\n\n", header, err)
	} else {
		fmt.Fprintf(out, "%sp=%d streaming=%v k=%d (planned total %.3f ms)\n\n",
			header, plan.P, plan.Streaming, plan.SliceK, plan.PredictedSeconds*1e3)
	}

	byName := map[string]localut.Design{
		"naive": localut.DesignNaive, "ltc": localut.DesignLTC,
		"op": localut.DesignOP, "oplc": localut.DesignOPLC,
		"oplcrc": localut.DesignOPLCRC, "localut": localut.DesignLoCaLUT,
	}
	var designs []localut.Design
	if *design == "all" {
		designs = localut.Designs
	} else {
		d, ok := byName[strings.ToLower(*design)]
		if !ok {
			return fmt.Errorf("unknown design %q", *design)
		}
		designs = []localut.Design{d}
	}

	fmt.Fprintf(out, "%-10s %12s %12s %12s %10s %9s %s\n",
		"design", "total (ms)", "kernel (ms)", "xfer (ms)", "energy (J)", "p/k", "check")
	var base float64
	var lastErr error
	for _, d := range designs {
		res, err := sys.GEMM(f, *m, *k, *n, d, opts...)
		if err != nil {
			fmt.Fprintf(out, "%-10s error: %v\n", d, err)
			lastErr = err
			continue
		}
		if base == 0 {
			base = res.TotalSeconds
		}
		check := "FAIL"
		if res.Verified {
			check = "OK"
		}
		fmt.Fprintf(out, "%-10s %12.4f %12.4f %12.4f %10.4f %6d/%-2d %s (%.2fx)\n",
			d, res.TotalSeconds*1e3, res.KernelSeconds*1e3, res.Transfer*1e3,
			res.EnergyJ, res.P, res.SliceK, check, base/res.TotalSeconds)
	}
	if base == 0 {
		return fmt.Errorf("no design ran: %w", lastErr)
	}
	return nil
}
