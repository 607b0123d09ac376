package localut_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/ais-snu/localut"
)

// Example_quickstart quantizes float matrices, picks a plan with the §IV-D
// cost model, and runs one GEMM under every design on the simulated PIM
// system.
func Example_quickstart() {
	const M, K, N = 768, 768, 128
	f := localut.W1A3
	sys := localut.NewSystem(localut.WithSeed(42))

	// 1. What will the cost model pick for this shape under the paper's
	// tiling, the one step 3 runs?
	plan, err := sys.ChoosePlan(f, M, K, N, localut.WithPaperTiling())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost model for %s %dx%dx%d: p=%d streaming=%v k=%d (p_local=%d, p_DRAM=%d)\n",
		f.Name(), M, K, N, plan.P, plan.Streaming, plan.SliceK, plan.PLocal, plan.PDRAM)

	// 2. LUT capacities at the chosen packing degree (the Fig. 6 tradeoff).
	c, err := localut.LUTCapacity(f, plan.P)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LUTs at p=%d: canonical %d B + reordering %d B (vs %d B operation-packed, %.0fx reduction)\n\n",
		plan.P, c.CanonicalBytes, c.ReorderBytes, c.OperationPackedByte, c.ReductionRate)

	// 3. Run the same GEMM under every design point.
	fmt.Printf("%-10s %12s %12s %10s %9s\n", "design", "total (ms)", "kernel (ms)", "energy (J)", "speedup")
	var naive float64
	for _, d := range localut.Designs {
		res, err := sys.GEMM(f, M, K, N, d, localut.WithPaperTiling())
		if err != nil {
			log.Fatal(err)
		}
		if d == localut.DesignNaive {
			naive = res.TotalSeconds
		}
		fmt.Printf("%-10s %12.3f %12.3f %10.4f %8.2fx  (p=%d, verified=%v)\n",
			d, res.TotalSeconds*1e3, res.KernelSeconds*1e3, res.EnergyJ,
			naive/res.TotalSeconds, res.P, res.Verified)
	}

	// 4. Bring your own data: quantize real floats and multiply.
	rng := rand.New(rand.NewSource(7))
	wData := make([]float64, 64*48)
	for i := range wData {
		wData[i] = rng.NormFloat64()
	}
	aData := make([]float64, 48*8)
	for i := range aData {
		aData[i] = rng.NormFloat64()
	}
	w, err := localut.Quantize(wData, 64, 48, f, localut.Weights)
	if err != nil {
		log.Fatal(err)
	}
	a, err := localut.Quantize(aData, 48, 8, f, localut.Activations)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.GEMMQuantized(w, a, localut.DesignLoCaLUT, localut.WithFullOutput())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncustom 64x48x8 GEMM: %d outputs, first = %d (scale %.4g x %.4g), verified=%v\n",
		len(res.Output), res.Output[0], w.Scale(), a.Scale(), res.Verified)

	// Output:
	// cost model for W1A3 768x768x128: p=8 streaming=true k=8 (p_local=5, p_DRAM=8)
	// LUTs at p=8: canonical 1647360 B + reordering 10321920 B (vs 4294967296 B operation-packed, 359x reduction)
	//
	// design       total (ms)  kernel (ms) energy (J)   speedup
	// NaivePIM         12.861       12.746     1.1886     1.00x  (p=0, verified=true)
	// LTC               4.536        4.416     0.4195     2.84x  (p=0, verified=true)
	// OP                5.523        5.406     0.5115     2.33x  (p=3, verified=true)
	// OP+LC            11.542       11.397     1.0683     1.11x  (p=5, verified=true)
	// OP+LC+RC          4.443        4.306     0.4113     2.89x  (p=5, verified=true)
	// LoCaLUT           2.544        2.404     0.2355     5.05x  (p=8, verified=true)
	//
	// custom 64x48x8 GEMM: 512 outputs, first = -5 (scale 0.8001 x 0.5384), verified=true
}

// Example_packingSweep explores the capacity-computation tradeoff: it
// sweeps the packing degree p on a W2A2 GEMM, compares the cost model's
// prediction against simulation (the Fig. 12 / Fig. 18 view), and shows
// where LUT slice streaming takes over from buffer-resident LUTs.
func Example_packingSweep() {
	f := localut.W2A2
	const K, N = 768, 128
	// A sweep consumes only timing, so the analytic cycles-only backend
	// gives identical numbers without the byte-level simulation.
	sys := localut.NewSystem(localut.WithCyclesOnly())

	for _, M := range []int{192, 768, 3072} {
		plan, err := sys.ChoosePlan(f, M, K, N, localut.WithPaperTiling())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s GEMM (%d, %d, %d): cost model picks p=%d (streaming=%v, k=%d)\n",
			f.Name(), M, K, N, plan.P, plan.Streaming, plan.SliceK)
		fmt.Printf("%3s %12s %12s %10s %10s\n", "p", "LUT bytes", "residence", "total(ms)", "speedup")

		naive, err := sys.GEMM(f, M, K, N, localut.DesignNaive, localut.WithPaperTiling())
		if err != nil {
			log.Fatal(err)
		}
		for p := 1; p <= plan.PDRAM; p++ {
			c, err := localut.LUTCapacity(f, p)
			if err != nil {
				log.Fatal(err)
			}
			opts := []localut.GEMMOption{localut.WithPaperTiling(), localut.WithPackingDegree(p)}
			residence := "buffer"
			if p > plan.PLocal {
				residence = "streaming"
				opts = append(opts, localut.WithStreaming())
			}
			res, err := sys.GEMM(f, M, K, N, localut.DesignLoCaLUT, opts...)
			if err != nil {
				log.Fatal(err)
			}
			marker := ""
			if p == plan.P {
				marker = "  <- model choice"
			}
			fmt.Printf("%3d %12d %12s %10.3f %9.2fx%s\n",
				p, c.CombinedBytes, residence, res.TotalSeconds*1e3,
				naive.TotalSeconds/res.TotalSeconds, marker)
		}
	}

	// Output:
	// W2A2 GEMM (192, 768, 128): cost model picks p=4 (streaming=false, k=1)
	//   p    LUT bytes    residence  total(ms)    speedup
	//   1           20       buffer      5.418      0.60x
	//   2          192       buffer      2.741      1.18x
	//   3         1664       buffer      1.859      1.74x
	//   4        15104       buffer      1.429      2.26x  <- model choice
	//   5       303104    streaming      1.724      1.88x
	//   6      6242304    streaming      3.131      1.03x
	//
	// W2A2 GEMM (768, 768, 128): cost model picks p=5 (streaming=true, k=8)
	//   p    LUT bytes    residence  total(ms)    speedup
	//   1           20       buffer     21.398      0.60x
	//   2          192       buffer     10.766      1.19x
	//   3         1664       buffer      7.233      1.78x
	//   4        15104       buffer      5.477      2.35x
	//   5       303104    streaming      4.698      2.74x  <- model choice
	//   6      6242304    streaming      5.848      2.20x
	//
	// W2A2 GEMM (3072, 768, 128): cost model picks p=5 (streaming=true, k=8)
	//   p    LUT bytes    residence  total(ms)    speedup
	//   1           20       buffer     85.391      0.60x
	//   2          192       buffer     42.905      1.20x
	//   3         1664       buffer     28.754      1.79x
	//   4        15104       buffer     21.689      2.37x
	//   5       303104    streaming     16.608      3.09x  <- model choice
	//   6      6242304    streaming     16.731      3.07x
}

// Example_bertInference runs BERT-base end to end on the simulated PIM
// system across quantization formats and designs, reporting the Fig.
// 16(a)-style phase breakdown and the Fig. 10-style speedups. The report
// consumes only timing, so the cycles-only backend prints the same table as
// the functional one.
func Example_bertInference() {
	sys := localut.NewSystem(localut.WithCyclesOnly())
	opts := localut.InferOptions{Batch: 8}

	fmt.Println("BERT-base, batch 8, sequence length 128 — end-to-end inference")
	fmt.Printf("%-6s %-10s %10s %9s | %s\n", "format", "design", "total(ms)", "speedup", "phase breakdown")

	for _, f := range localut.Formats {
		var naive float64
		for _, d := range []localut.Design{localut.DesignNaive, localut.DesignLTC,
			localut.DesignOP, localut.DesignLoCaLUT} {
			res, err := sys.Infer(localut.BERTBase, f, d, opts)
			if err != nil {
				log.Fatal(err)
			}
			if d == localut.DesignNaive {
				naive = res.TotalSeconds
			}
			p := res.Prefill
			fmt.Printf("%-6s %-10s %10.2f %8.2fx | gemm %4.0f%%  xfer %4.0f%%  quant %4.0f%%  sort %4.0f%%  host %4.0f%%\n",
				f.Name(), d, res.TotalSeconds*1e3, naive/res.TotalSeconds,
				100*p.GEMMPIM/p.Total, 100*p.Transfer/p.Total, 100*p.Quantize/p.Total,
				100*p.SortPack/p.Total, 100*p.HostOther/p.Total)
		}
		fmt.Println()
	}

	// Output:
	// BERT-base, batch 8, sequence length 128 — end-to-end inference
	// format design      total(ms)   speedup | phase breakdown
	// W1A3   NaivePIM      1042.27     1.00x | gemm   88%  xfer    8%  quant    1%  sort    0%  host    3%
	// W1A3   LTC            447.20     2.33x | gemm   71%  xfer   18%  quant    3%  sort    1%  host    6%
	// W1A3   OP             515.78     2.02x | gemm   76%  xfer   15%  quant    3%  sort    1%  host    5%
	// W1A3   LoCaLUT        318.05     3.28x | gemm   55%  xfer   26%  quant    5%  sort    6%  host    9%
	//
	// W1A4   NaivePIM      1042.27     1.00x | gemm   88%  xfer    8%  quant    1%  sort    0%  host    3%
	// W1A4   LTC            447.20     2.33x | gemm   71%  xfer   18%  quant    3%  sort    1%  host    6%
	// W1A4   OP             517.65     2.01x | gemm   76%  xfer   15%  quant    3%  sort    1%  host    5%
	// W1A4   LoCaLUT        342.12     3.05x | gemm   57%  xfer   24%  quant    4%  sort    6%  host    8%
	//
	// W2A2   NaivePIM      1042.27     1.00x | gemm   88%  xfer    8%  quant    1%  sort    0%  host    3%
	// W2A2   LTC            758.03     1.37x | gemm   83%  xfer   11%  quant    2%  sort    1%  host    4%
	// W2A2   OP             511.16     2.04x | gemm   76%  xfer   14%  quant    3%  sort    1%  host    5%
	// W2A2   LoCaLUT        482.63     2.16x | gemm   70%  xfer   18%  quant    3%  sort    4%  host    6%
	//
	// W4A4   NaivePIM      1042.27     1.00x | gemm   88%  xfer    8%  quant    1%  sort    0%  host    3%
	// W4A4   LTC           1379.58     0.76x | gemm   91%  xfer    6%  quant    1%  sort    0%  host    2%
	// W4A4   OP            1298.50     0.80x | gemm   90%  xfer    6%  quant    1%  sort    1%  host    2%
	// W4A4   LoCaLUT        909.29     1.15x | gemm   83%  xfer   10%  quant    2%  sort    2%  host    3%
}

// Example_servingSLA finds, for each kernel design, the highest open-loop
// arrival rate a LoCaLUT appliance can sustain while meeting the two latency
// SLOs decode-dominated LLM serving is judged by: p99 time-to-first-token
// (prompt responsiveness) and p99 time-per-output-token (generation
// smoothness). Each probe is a full discrete-event simulation with
// token-level continuous-batching decode priced through the cycles-only
// backend, so the binary search over rates runs in well under a second.
func Example_servingSLA() {
	const (
		sloTTFTP99Seconds = 0.5   // p99 time-to-first-token objective
		sloTPOTP99Seconds = 0.080 // p99 time-per-output-token objective
		windowSeconds     = 10    // arrival window per probe
		maxRate           = 512   // search ceiling (requests/sec)
		outTokensMean     = 16    // sampled output length distribution
		outTokensMax      = 64
	)
	sys := localut.NewSystem(localut.WithSeed(1))

	probe := func(d localut.Design, rate float64) (*localut.ServeReport, error) {
		return sys.Serve(localut.ServeConfig{
			Model:           localut.OPT125M,
			Format:          localut.W1A3,
			Design:          d,
			RatePerSec:      rate,
			DurationSeconds: windowSeconds,
			OutTokensMean:   outTokensMean,
			OutTokensMax:    outTokensMax,
		})
	}

	meetsSLO := func(rep *localut.ServeReport) bool {
		return rep.Completed > 0 &&
			rep.TTFT.P99 <= sloTTFTP99Seconds &&
			rep.TPOT.P99 <= sloTPOTP99Seconds
	}

	fmt.Printf("max sustainable rate meeting ttft p99 <= %.0f ms AND tpot p99 <= %.0f ms\n",
		sloTTFTP99Seconds*1e3, sloTPOTP99Seconds*1e3)
	fmt.Printf("(OPT-125M W1A3, ~%d output tokens/request, %ds windows):\n\n",
		outTokensMean, windowSeconds)
	fmt.Printf("%-10s %12s %12s %12s %12s %10s\n",
		"design", "max rate/s", "tokens/s", "ttft p99", "tpot p99", "util")

	for _, d := range localut.Designs {
		// Binary search the largest integer rate meeting both SLOs. The
		// simulator is deterministic, so the search is reproducible.
		lo, hi := 0, maxRate // lo: known-feasible, hi: known-infeasible
		for lo+1 < hi {
			mid := (lo + hi) / 2
			rep, err := probe(d, float64(mid))
			if err != nil {
				log.Fatal(err)
			}
			if meetsSLO(rep) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			fmt.Printf("%-10s %12s\n", d, "none")
			continue
		}
		rep, err := probe(d, float64(lo))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %12d %12.0f %9.1f ms %9.1f ms %10.2f\n",
			d, lo, rep.TokensPerSec, rep.TTFT.P99*1e3, rep.TPOT.P99*1e3, rep.RankUtilization)
	}

	// Output:
	// max sustainable rate meeting ttft p99 <= 500 ms AND tpot p99 <= 80 ms
	// (OPT-125M W1A3, ~16 output tokens/request, 10s windows):
	//
	// design       max rate/s     tokens/s     ttft p99     tpot p99       util
	// NaivePIM           none
	// LTC                   8          903     395.3 ms      25.8 ms       0.46
	// OP                    6          758     441.4 ms      59.4 ms       0.47
	// OP+LC              none
	// OP+LC+RC              8          902     363.0 ms      42.0 ms       0.49
	// LoCaLUT              18         2110     480.0 ms      62.3 ms       0.76
}

// Example_transformerForward runs one full transformer encoder layer
// numerically: every projection/FFN GEMM executes as quantized integer
// lookups on the simulated PIM system (the Fig. 8 split), the host computes
// attention, softmax, layer norm and GELU in fp32, and the result is
// compared against a pure-float reference of the same layer. This
// demonstrates the paper's end-to-end numeric contract: the LUT pipeline
// adds no error beyond quantization itself.
func Example_transformerForward() {
	rng := rand.New(rand.NewSource(7))
	l := &layer{
		wq: randMat(rng, hidden, hidden), wk: randMat(rng, hidden, hidden),
		wv: randMat(rng, hidden, hidden), wo: randMat(rng, hidden, hidden),
		w1: randMat(rng, ffn, hidden), w2: randMat(rng, hidden, ffn),
	}
	x := randMat(rng, tokens, hidden)

	ref, err := forward(l, x, nil)
	if err != nil {
		log.Fatal(err)
	}

	sys := localut.NewSystem()
	fmt.Printf("one encoder layer, %d tokens x %d hidden, PIM GEMMs vs float reference:\n\n", tokens, hidden)
	fmt.Printf("%-6s %14s %16s\n", "format", "rel. error", "PIM GEMM time")
	for _, f := range localut.Formats {
		var gemmSeconds float64
		got, err := forward(l, x, func(w, in []float64, m, k, n int) ([]float64, error) {
			out, sec, err := pimGEMM(sys, f, w, in, m, k, n)
			gemmSeconds += sec
			return out, err
		})
		if err != nil {
			log.Fatal(err)
		}
		var num, den float64
		for i := range ref {
			d := got[i] - ref[i]
			num += d * d
			den += ref[i] * ref[i]
		}
		fmt.Printf("%-6s %14.4f %13.3f ms\n", f.Name(), math.Sqrt(num/den), gemmSeconds*1e3)
	}
	fmt.Println("\nevery PIM GEMM above was verified bit-exact against the integer reference,")
	fmt.Println("so the error is per-tensor post-training quantization alone, compounded")
	fmt.Println("across six projections (real W1Ax deployments recover accuracy with")
	fmt.Println("quantization-aware training, e.g. BinaryBERT [3]; the paper inherits those")
	fmt.Println("checkpoints, while this library reproduces the execution substrate).")

	// Output:
	// one encoder layer, 32 tokens x 128 hidden, PIM GEMMs vs float reference:
	//
	// format     rel. error    PIM GEMM time
	// W1A3           0.9247         0.285 ms
	// W1A4           0.9133         0.120 ms
	// W2A2           0.9343         0.181 ms
	// W4A4           0.3912         0.401 ms
	//
	// every PIM GEMM above was verified bit-exact against the integer reference,
	// so the error is per-tensor post-training quantization alone, compounded
	// across six projections (real W1Ax deployments recover accuracy with
	// quantization-aware training, e.g. BinaryBERT [3]; the paper inherits those
	// checkpoints, while this library reproduces the execution substrate).
}
