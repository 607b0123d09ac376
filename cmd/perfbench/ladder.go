package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/internal/banksim"
	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/costmodel"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/energy"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/lut"
	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
	synth "github.com/ais-snu/localut/internal/workload"
)

// The layer ladder times each layer from outside, by calling its public
// functions the way the workload's run does: a direct cluster.Run or
// serve.Run, then replay rungs for the layers underneath. The event-loop
// residual is the run minus the rungs, so the ladder closes by
// construction; what the check guards against is rungs that double-count.

// ladder is the traced pass's working state for one workload.
type ladder struct {
	seed  int64
	quick bool
	out   *outcome // a rep of the workload (same seed, so same reports)
	wall  float64  // median wall of the traced reps, as the clock read it
	best  float64  // fastest rep of the pass, traced or not
	tr    *tracer
	m     map[string]float64 // layer metrics by name
	fail  []string
}

func (l *ladder) failf(format string, args ...interface{}) {
	l.fail = append(l.fail, fmt.Sprintf(format, args...))
}

// timed runs fn inside a span and returns its wall seconds.
func (l *ladder) timed(name string, fn func()) float64 {
	end := l.tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	end()
	return d
}

// n picks an iteration count for the scale.
func (l *ladder) n(full, quick int) int {
	if l.quick {
		return quick
	}
	return full
}

func modelConfig(m localut.Model) dnn.ModelConfig {
	switch m {
	case localut.OPT125M:
		return dnn.OPT125M()
	case localut.ViTBase:
		return dnn.ViTBase()
	}
	return dnn.BERTBase()
}

func mustFormat(f localut.Format) quant.Format {
	qf, err := quant.ParseFormat(f.Name())
	if err != nil {
		panic(err) // the public format list is a subset of quant's
	}
	return qf
}

// benchEngine is the engine a cold System owns.
func benchEngine() *gemm.Engine {
	e := gemm.NewEngine()
	e.Exec.Parallelism = 1
	return e
}

// directCluster is the cluster.Config that System.ServeCluster builds from
// cfg, on a bench-owned engine. The smoke test pins that it yields the
// facade's headline counts.
func directCluster(cfg localut.ClusterConfig, rec *obs.Recorder, met *obs.Metrics) cluster.Config {
	return cluster.Config{
		Base: serve.Config{
			Model:   modelConfig(cfg.Model),
			Fmt:     mustFormat(cfg.Format),
			Variant: kernels.Variant(cfg.Design),
			Engine:  benchEngine(),
			Energy:  energy.Default(),

			Replicas:  cfg.Replicas,
			MaxBatch:  cfg.MaxBatch,
			Scheduler: serve.Policy(cfg.Scheduler),

			MinTokens: cfg.MinTokens, MaxTokens: cfg.MaxTokens, MeanTokens: cfg.MeanTokens,
			TokenQuantum: cfg.TokenQuantum,

			OutTokens: cfg.OutTokens, OutTokensMean: cfg.OutTokensMean, OutTokensMax: cfg.OutTokensMax,
			MaxQueue: cfg.MaxQueue,
			KVPolicy: serve.KVPolicy(cfg.KVPolicy),
		},
		Instances:       cfg.Instances,
		Router:          cluster.RouterPolicy(cfg.Router),
		Admission:       cluster.AdmissionPolicy(cfg.Admission),
		RatePerSec:      cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds,
		Seed:            cfg.Seed,
		Faults: cluster.FaultConfig{Enabled: cfg.Faults.Enabled, MTTFSeconds: cfg.Faults.MTTFSeconds,
			MTTRSeconds: cfg.Faults.MTTRSeconds, DegradedFraction: cfg.Faults.DegradedFraction,
			LUTRematGBps: cfg.Faults.LUTRematGBps},
		Domains: cluster.DomainConfig{Enabled: cfg.Domains.Enabled, Count: cfg.Domains.Count,
			MTBFSeconds: cfg.Domains.MTBFSeconds, MTTRSeconds: cfg.Domains.MTTRSeconds},
		Stragglers: cluster.StragglerConfig{Enabled: cfg.Stragglers.Enabled, MTBFSeconds: cfg.Stragglers.MTBFSeconds,
			MeanDurationSeconds: cfg.Stragglers.MeanDurationSeconds, Slowdown: cfg.Stragglers.Slowdown},
		Hedge: cluster.HedgeConfig{Enabled: cfg.Hedge.Enabled, DelaySeconds: cfg.Hedge.DelaySeconds},
		Retry: cluster.RetryConfig{MaxAttempts: cfg.Retry.MaxAttempts, BackoffSeconds: cfg.Retry.BackoffSeconds,
			BackoffCapSeconds: cfg.Retry.BackoffCapSeconds},
		Audit:           cfg.Audit,
		DeadlineSeconds: cfg.Deadlines.DefaultSeconds,
		Recorder:        rec,
		Metrics:         met,
	}
}

// directServe is the serve.Config that System.Serve builds from cfg.
func directServe(cfg localut.ServeConfig, eng *gemm.Engine) serve.Config {
	return serve.Config{
		Model:   modelConfig(cfg.Model),
		Fmt:     mustFormat(cfg.Format),
		Variant: kernels.Variant(cfg.Design),
		Engine:  eng,
		Energy:  energy.Default(),

		Replicas:        cfg.Replicas,
		RatePerSec:      cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds,
		Seed:            cfg.Seed,
		MaxBatch:        cfg.MaxBatch,
		Scheduler:       serve.Policy(cfg.Scheduler),

		MinTokens: cfg.MinTokens, MaxTokens: cfg.MaxTokens, MeanTokens: cfg.MeanTokens,
		TokenQuantum: cfg.TokenQuantum,

		OutTokens: cfg.OutTokens, OutTokensMean: cfg.OutTokensMean, OutTokensMax: cfg.OutTokensMax,
	}
}

// fleetLadder is the traced pass of a fleet_* workload.
func fleetLadder(l *ladder, cfg localut.ClusterConfig, obsOn bool) {
	rep := l.out.fleet
	if rep == nil {
		l.failf("ladder: no fleet report to attribute")
		return
	}
	admitted := float64(rep.Admitted)

	// cluster.Run directly, recording and exporting as the facade does.
	run := func(audit, record bool) (runS, exportS float64, spans int, bytes int64) {
		var rec *obs.Recorder
		var met *obs.Metrics
		if record {
			rec, met = obs.NewRecorder(1), obs.NewMetrics(1)
		}
		dcfg := directCluster(cfg, rec, met)
		dcfg.Audit = audit
		quiesce()
		var drep *cluster.Report
		var err error
		runS = l.timed("cluster.Run", func() { drep, err = cluster.Run(dcfg) })
		if err != nil {
			l.failf("cluster.Run: %v", err)
			return
		}
		if drep.Admitted != rep.Admitted || drep.Completed != rep.Completed || drep.Shed != rep.Shed {
			l.failf("cluster.Run admitted/completed/shed %d/%d/%d, facade %d/%d/%d",
				drep.Admitted, drep.Completed, drep.Shed, rep.Admitted, rep.Completed, rep.Shed)
		}
		if record {
			var cw countingWriter
			exportS = l.timed("obs.export", func() {
				if err := rec.WriteJSON(&cw); err != nil {
					l.failf("trace export: %v", err)
				}
				if err := met.WriteCSV(&cw); err != nil {
					l.failf("metrics export: %v", err)
				}
			})
			spans, bytes = rec.Len(), cw.n
		}
		return
	}
	// Audited and unaudited runs alternate and the faster of each pair
	// counts: single runs differ by more than the auditor costs.
	runS, exportS, spans, bytes := run(true, obsOn)
	noAudit, _, _, _ := run(false, obsOn)
	if again, e, _, _ := run(true, obsOn); again < runS {
		runS, exportS = again, e
	}
	if again, _, _, _ := run(false, obsOn); again < noAudit {
		noAudit = again
	}
	l.m["cluster.run_s"] = runS
	l.m["audit.overhead_s"] = runS - noAudit
	if obsOn {
		off, _, _, _ := run(true, false)
		l.m["obs.export_s"] = exportS
		l.m["obs.export_ns_per_byte"] = exportS * 1e9 / float64(bytes)
		l.m["obs.trace_bytes_per_req"] = float64(bytes) / admitted
		l.m["obs.spans_per_req"] = float64(spans) / admitted
		l.m["obs.overhead_us_per_req"] = (runS + exportS - off) * 1e6 / admitted
	}
	quiesce()

	// The facade is what ServeCluster adds around cluster.Run and export:
	// the fastest rep against the fastest direct run, because the noise on
	// either is one-sided and larger than the difference.
	l.m["localut.facade_s"] = l.best - runS - exportS
	var enc []byte
	l.m["localut.report_json_s"] = l.timed("localut.report_json", func() { enc, _ = json.Marshal(rep) })
	l.m["localut.report_json_bytes"] = float64(len(enc))

	// Replay rungs.
	base, err := directCluster(cfg, nil, nil).Base.NormalizeInstance()
	if err != nil {
		l.failf("normalize: %v", err)
		return
	}
	base.Seed = l.seed
	steps := 0
	for _, ir := range rep.Instances {
		steps += ir.DecodeSteps
	}
	inst := rungInstance(l, base, cfg.RatePerSec/float64(cfg.Instances), cfg.Deadlines.DefaultSeconds)
	instS := (inst.nsPerReq*admitted + inst.nsPerStep*float64(steps)) * 1e-9

	// Per completed request the fleet records queue, service and latency
	// fleet-wide and latency again per class; decode adds TTFT and TPOT,
	// both fleet-wide and per class.
	pops := []histPop{{rep.Queue, 1}, {rep.Service, 1}, {rep.Latency, 2}}
	if cfg.OutTokens > 0 || cfg.OutTokensMean > 0 {
		pops = append(pops, histPop{rep.TTFT, 2}, histPop{rep.TPOT, 2})
	}
	histS := rungHist(l, pops, float64(rep.Completed))

	arrNS := rungArrivals(l, base, true)
	l.m["workload.arrivals_ns_per_req"] = arrNS
	arrS := arrNS * admitted * 1e-9

	coldMS, _ := rungDNN(l, base, []kernels.Variant{base.Variant})
	l.m["dnn.distinct_sims"] = float64(rep.DistinctForwardSims)
	dnnS := coldMS * 1e-3 * float64(rep.DistinctForwardSims)

	recNS := rungObsReplay(l)
	obsS := recNS * float64(spans) * 1e-9

	residual := runS - instS - histS - arrS - dnnS - obsS
	l.m["cluster.loop_residual_ns_per_req"] = residual * 1e9 / admitted
	l.closure("cluster.run_s", runS, residual)

	rungPlanner(l, base.Model, base.Fmt)
	rungKernels(l, base.Model, base.Fmt)
}

// closure is the ladder check: the rungs may not exceed the run they
// replay by more than 5% of it. At the quick scale a run lasts
// milliseconds and the rungs' fixed costs swamp it, so the fraction is
// reported but not judged.
func (l *ladder) closure(name string, run, residual float64) {
	l.m["ladder_unattributed_frac"] = residual / run
	if residual < -0.05*run && !l.quick {
		l.failf("ladder: rungs exceed %s by %.1f%% (residual %.3fs of %.3fs); they double-count",
			name, -100*residual/run, residual, run)
	}
}

// slaLadder is the traced pass of serve_sla_search.
func slaLadder(l *ladder) {
	probes := l.out.probes
	if len(probes) == 0 {
		l.failf("ladder: no probes to attribute")
		return
	}
	// serve.Run per probe, on one engine as the System's probes share one.
	eng := benchEngine()
	var runS float64
	var requests, completed, steps, sims float64
	designSims := map[localut.Design]int{}
	for _, p := range probes {
		scfg := directServe(slaProbeConfig(p.design, p.rate, l.seed, l.quick), eng)
		var srep *serve.Report
		var err error
		runS += l.timed("serve.Run", func() { srep, err = serve.Run(scfg) })
		if err != nil {
			l.failf("serve.Run %s at %d/s: %v", p.design, p.rate, err)
			continue
		}
		if srep.Requests != p.report.Requests || srep.Completed != p.report.Completed {
			l.failf("serve.Run %s at %d/s: requests/completed %d/%d, facade %d/%d",
				p.design, p.rate, srep.Requests, srep.Completed, p.report.Requests, p.report.Completed)
		}
		requests += float64(srep.Requests)
		completed += float64(srep.Completed)
		steps += float64(srep.DecodeSteps)
		sims += float64(srep.DistinctForwardSims)
		if srep.DistinctForwardSims > designSims[p.design] {
			designSims[p.design] = srep.DistinctForwardSims
		}
	}
	l.m["serve.run_s"] = runS

	// The instance replays the first probe every design's search makes:
	// by request volume most of the search runs saturated.
	base, err := directServe(slaProbeConfig(localut.DesignLoCaLUT, slaMaxRate/2, l.seed, l.quick), eng).NormalizeInstance()
	if err != nil {
		l.failf("normalize: %v", err)
		return
	}
	inst := rungInstance(l, base, slaMaxRate/2, 0)
	instS := (inst.nsPerReq*requests + inst.nsPerStep*steps) * 1e-9

	last := probes[len(probes)-1].report // LoCaLUT's search ends the list
	histS := rungHist(l, []histPop{{last.Queue, 1}, {last.Service, 1}, {last.Latency, 1},
		{last.TTFT, 1}, {last.TPOT, 1}}, completed)

	arrNS := rungArrivals(l, base, false)
	l.m["workload.arrivals_ns_per_req"] = arrNS
	arrS := arrNS * requests * 1e-9

	// Every probe prices its shapes on a fresh oracle; only a design's
	// first visit to a shape runs the planners, the rest hit the memos.
	coldMS, warmUS := rungDNN(l, base, kernels.Variants)
	l.m["dnn.distinct_sims"] = sims
	cold := 0.0
	for _, d := range localut.Designs {
		cold += float64(designSims[d])
	}
	dnnS := cold*coldMS*1e-3 + (sims-cold)*warmUS*1e-6

	residual := runS - instS - histS - arrS - dnnS
	l.m["serve.loop_residual_ns_per_req"] = residual * 1e9 / requests
	l.closure("serve.run_s", runS, residual)

	rungPlanner(l, base.Model, base.Fmt)
	rungKernels(l, base.Model, base.Fmt)
}

// figuresLadder is the traced pass of figures_cyclesonly: the figure
// spans are the ladder, and the rungs below time the layers under them.
func figuresLadder(l *ladder) {
	var sum float64
	for _, id := range l.out.figures {
		d := summarize(l.tr.durations("experiments." + id)).Median
		l.m["experiments."+id+"_s"] = d
		sum += d
	}
	l.m["ladder_unattributed_frac"] = 1 - sum/l.wall
	if math.Abs(sum-l.wall) > 0.02*l.wall {
		l.failf("ladder: figure spans sum to %.3fs, rep wall is %.3fs", sum, l.wall)
	}

	// fig09 builds a seeded operand pair for every (shape, format, design).
	shapes := [][3]int{{768, 768, 128}, {3072, 768, 128}}
	if l.quick {
		shapes = [][3]int{{192, 192, 16}}
	}
	l.m["workload.gemm_pair_s"] = l.timed("workload.NewGEMMPair", func() {
		for _, sh := range shapes {
			for _, f := range quant.Formats {
				for range kernels.Variants {
					sinkPair = synth.NewGEMMPair(sh[0], sh[1], sh[2], f, l.seed)
				}
			}
		}
	})

	// fig20's per-bank share of each size, on one LUT unit.
	sizes := []int{1024, 2048, 4096}
	if l.quick {
		sizes = []int{1024}
	}
	tm := banksim.HBM2()
	var bankS float64
	var bankN int
	for _, sz := range sizes {
		specs, err := banksim.SplitGEMM(sz, sz, sz, 4, 16)
		if err != nil {
			l.failf("banksim.SplitGEMM: %v", err)
			return
		}
		for _, f := range quant.Formats {
			spec := unitSpec(f)
			u, err := banksim.NewLUTPIM(tm, spec.P, spec.WeightRowBytes(), spec.EntryBytes())
			if err == nil {
				err = u.ConfigureSlices(spec.Rows()*int64(spec.EntryBytes()), spec.Rows()*int64(spec.WeightRowBytes()))
			}
			if err != nil {
				l.failf("banksim.NewLUTPIM: %v", err)
				return
			}
			bankS += l.timed("banksim.RunGEMMOn", func() {
				if _, err := u.RunGEMMOn(banksim.NewBank(tm), specs[0]); err != nil {
					l.failf("banksim.RunGEMMOn: %v", err)
				}
			})
			bankN++
		}
	}
	l.m["banksim.rungemm_ms"] = bankS * 1e3 / float64(bankN)

	model := dnn.BERTBase()
	base, err := serve.Config{Model: model, Fmt: quant.W1A3, Variant: kernels.LoCaLUT,
		Engine: benchEngine(), Replicas: 1}.NormalizeInstance()
	if err != nil {
		l.failf("normalize: %v", err)
		return
	}
	_, _ = rungDNN(l, base, []kernels.Variant{kernels.Naive, kernels.LTC, kernels.OP, kernels.LoCaLUT})
	rungPlanner(l, model, quant.W1A3)
	rungKernels(l, model, quant.W1A3)
}

// sinkPair keeps the compiler from discarding the operand generation.
var sinkPair *synth.GEMMPair

// unitSpec is fig20's choice: the largest p whose canonical column fits a
// 512 B LUT-unit SRAM.
func unitSpec(f quant.Format) lut.Spec {
	best := lut.MustSpec(f, 1)
	for p := 1; p <= 8; p++ {
		spec, err := lut.NewSpec(f, p)
		if err != nil {
			break
		}
		if spec.Rows()*int64(spec.EntryBytes()) <= 512 {
			best = spec
		}
	}
	return best
}

// clockNS is the cost of one time.Now, subtracted from per-event timings.
func clockNS() float64 {
	const n = 200000
	t0 := time.Now()
	last := t0
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	return float64(last.Sub(t0).Nanoseconds()) / n
}

type instanceCost struct{ nsPerReq, nsPerStep float64 }

// rungInstance drives one serve.Instance directly at the given arrival
// rate: Admit and Dispatch at each arrival, PrefillDone or StepDone and
// Dispatch at each completion. At most Replicas completions are pending,
// so the driver needs no heap. Requests and their arrival times are built
// before the clock starts; decode steps are timed apart from everything
// else, which is charged to requests.
func rungInstance(l *ladder, base serve.Config, ratePerSec, deadline float64) instanceCost {
	n := l.n(200000, 4000)
	inst, err := serve.NewInstance(base, 0, nil)
	if err != nil {
		l.failf("serve.NewInstance: %v", err)
		return instanceCost{}
	}
	arr, err := synth.NewArrivalSampler(ratePerSec, base.Seed)
	if err != nil {
		l.failf("arrivals: %v", err)
		return instanceCost{}
	}
	lengths, err := synth.NewLengthSampler(base.MinTokens, base.MaxTokens, base.MeanTokens, base.Seed+1)
	if err != nil {
		l.failf("lengths: %v", err)
		return instanceCost{}
	}
	var outLens *synth.LengthSampler
	if base.OutTokensMean > 0 {
		if outLens, err = synth.NewLengthSampler(1, base.OutTokensMax, base.OutTokensMean, base.Seed+3); err != nil {
			l.failf("output lengths: %v", err)
			return instanceCost{}
		}
	}
	reqs := make([]serve.Request, n)
	t := 0.0
	for i := range reqs {
		t += arr.Next()
		tok := lengths.Next()
		out := base.OutTokens
		if outLens != nil {
			out = outLens.Next()
		}
		q := base.TokenQuantum
		reqs[i] = serve.Request{ID: i, Client: -1, Tokens: tok, Padded: (tok + q - 1) / q * q,
			OutLen: out, Member: -1, Arrive: t}
		if deadline > 0 {
			reqs[i].Deadline = t + deadline
		}
	}

	clock := clockNS()
	var reqNS, stepNS float64
	var events, steps int
	pending := make([]serve.Completion, 0, base.Replicas)
	end := l.tr.begin("serve.Instance")
	last := time.Now()
	for next := 0; next < n || len(pending) > 0; events++ {
		first := -1
		for i := range pending {
			if first < 0 || pending[i].At < pending[first].At {
				first = i
			}
		}
		var comps []serve.Completion
		var err error
		step := false
		if next < n && (first < 0 || reqs[next].Arrive <= pending[first].At) {
			r := &reqs[next]
			next++
			inst.Admit(r)
			comps, err = inst.Dispatch(r.Arrive)
		} else {
			c := pending[first]
			pending[first] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if step = c.Kind == serve.CompletionStep; step {
				inst.StepDone(c.Replica, c.At)
			} else {
				inst.PrefillDone(c.Replica, c.Batch, c.At)
			}
			comps, err = inst.Dispatch(c.At)
		}
		if err != nil {
			l.failf("serve.Instance.Dispatch: %v", err)
			break
		}
		pending = append(pending, comps...)
		// One clock read per event: the interval since the last one is
		// the event plus this loop's bookkeeping.
		now := time.Now()
		if d := float64(now.Sub(last).Nanoseconds()) - clock; step {
			stepNS += d
			steps++
		} else {
			reqNS += d
		}
		last = now
	}
	end()
	c := instanceCost{nsPerReq: reqNS / float64(n)}
	if steps > 0 {
		c.nsPerStep = stepNS / float64(steps)
	}
	l.m["serve.instance_ns_per_req"] = c.nsPerReq
	l.m["serve.instance_ns_per_step"] = c.nsPerStep
	return c
}

// histPop is one latency population a run streams into histograms:
// its summary in the report, and how many samples of it each completed
// request adds.
type histPop struct {
	stats  localut.LatencyStats
	weight int
}

// rungHist times LogHistogram.Add over a seeded sample that mixes the
// report's latency populations in the proportion the run records them,
// each log-normal through its p50 and p99 (a population whose median is
// zero, such as the queue wait of an idle fleet, is half zeros: those take
// the histogram's underflow exit). It returns the seconds the run's
// samples cost at that price.
func rungHist(l *ladder, pops []histPop, completed float64) float64 {
	rng := rand.New(rand.NewSource(l.seed))
	vals := make([]float64, 1<<14)
	perRequest := 0
	for _, p := range pops {
		perRequest += p.weight
	}
	for i := range vals {
		pick := rng.Intn(perRequest)
		var st localut.LatencyStats
		for _, p := range pops {
			if pick < p.weight {
				st = p.stats
				break
			}
			pick -= p.weight
		}
		p50, p99 := st.P50, st.P99
		if p50 <= 0 {
			if p99 <= 0 || rng.Intn(2) == 0 {
				continue // a zero sample
			}
			p50 = p99 / 10
		}
		sigma := math.Log(math.Max(p99/p50, 1)) / 2.326
		vals[i] = p50 * math.Exp(sigma*rng.NormFloat64())
	}
	n := l.n(4000000, 100000)
	h := trace.NewLogHistogram()
	addS := l.timed("trace.LogHistogram.Add", func() {
		for i := 0; i < n; i++ {
			h.Add(vals[i&(len(vals)-1)])
		}
	})
	const quantiles = 3000
	qS := l.timed("trace.LogHistogram.Quantile", func() {
		for i := 0; i < quantiles; i++ {
			sinkFloat += h.Quantile(0.5 + 0.49*float64(i%3)/2)
		}
	})
	addNS := addS * 1e9 / float64(n)
	l.m["trace.hist_add_ns_per_op"] = addNS
	l.m["trace.hist_quantile_us"] = qS * 1e6 / quantiles
	histS := addNS * completed * float64(perRequest) * 1e-9
	l.m["trace.hist_share"] = histS / l.wall
	return histS
}

var sinkFloat float64

// rungArrivals times the traffic layer's samplers: the merged arrival
// stream (fleet) or the single Poisson stream (serve), plus the length
// samplers, per request.
func rungArrivals(l *ladder, base serve.Config, fleet bool) float64 {
	n := l.n(2000000, 50000)
	lengths, err := synth.NewLengthSampler(base.MinTokens, base.MaxTokens, base.MeanTokens, base.Seed+1)
	if err != nil {
		l.failf("lengths: %v", err)
		return 0
	}
	var outLens *synth.LengthSampler
	if base.OutTokensMean > 0 {
		if outLens, err = synth.NewLengthSampler(1, base.OutTokensMax, base.OutTokensMean, base.Seed+3); err != nil {
			l.failf("output lengths: %v", err)
			return 0
		}
	}
	next := func() float64 { return 0 }
	if fleet {
		ma, err := synth.NewMultiArrival([]float64{1000}, base.Seed)
		if err != nil {
			l.failf("arrivals: %v", err)
			return 0
		}
		next = func() float64 { t, _ := ma.Next(); return t }
	} else {
		a, err := synth.NewArrivalSampler(1000, base.Seed)
		if err != nil {
			l.failf("arrivals: %v", err)
			return 0
		}
		next = a.Next
	}
	s := l.timed("workload.samplers", func() {
		for i := 0; i < n; i++ {
			sinkFloat += next() + float64(lengths.Next())
			if outLens != nil {
				sinkFloat += float64(outLens.Next())
			}
		}
	})
	return s * 1e9 / float64(n)
}

// rungDNN prices forward passes on fresh runners the way a serving oracle
// does (cycles-only, the replica's rank share), first call then second,
// over quantum-multiple shapes: single requests and packed batches, and
// decode steps when the config decodes. It returns the mean cold
// milliseconds and warm microseconds per pass.
func rungDNN(l *ladder, base serve.Config, variants []kernels.Variant) (coldMS, warmUS float64) {
	q := base.TokenQuantum
	type shape struct{ tokens, ctx int }
	var prefill, decode []shape
	for k := 1; k <= 8; k++ {
		ctx := k
		if ctx > 4 {
			ctx = 4
		}
		prefill = append(prefill, shape{k * q, ctx * q})
	}
	if base.OutTokens > 0 || base.OutTokensMean > 0 {
		for _, n := range []int{1, 2, 4, 8} {
			for k := 1; k <= 4; k++ {
				decode = append(decode, shape{n, k * q})
			}
		}
	}
	var coldS, warmS float64
	var passes int
	for _, v := range variants {
		eng := benchEngine()
		eng.Exec.Mode = kernels.CyclesOnly
		if eng.Cfg.Ranks /= base.Replicas; eng.Cfg.Ranks < 1 {
			eng.Cfg.Ranks = 1
		}
		r := dnn.NewRunner(base.Model, base.Fmt, v)
		r.Engine = eng
		r.Seed = base.Seed
		price := func() {
			for _, s := range prefill {
				if _, err := r.ForwardTokens(s.tokens, s.ctx); err != nil {
					l.failf("dnn.ForwardTokens(%d,%d) %s: %v", s.tokens, s.ctx, v, err)
				}
			}
			for _, s := range decode {
				if _, err := r.DecodeStep(s.tokens, s.ctx); err != nil {
					l.failf("dnn.DecodeStep(%d,%d) %s: %v", s.tokens, s.ctx, v, err)
				}
			}
		}
		coldS += l.timed("dnn.forward_cold", price)
		warmS += l.timed("dnn.forward_warm", price)
		passes += len(prefill) + len(decode)
	}
	coldMS = coldS * 1e3 / float64(passes)
	warmUS = warmS * 1e6 / float64(passes)
	l.m["dnn.forward_cold_ms"] = coldMS
	l.m["dnn.forward_warm_us"] = warmUS
	return coldMS, warmUS
}

// rungPlanner times the gemm planner and the cost model on the model's
// layer GEMMs at one full batch of tokens, cold then warm, and reads the
// memo statistics from the bench-owned engine afterwards.
func rungPlanner(l *ladder, model dnn.ModelConfig, f quant.Format) {
	eng := benchEngine()
	eng.Exec.Mode = kernels.CyclesOnly
	tokens := 8 * model.SeqLen
	shapes := model.LayerGEMMs()
	plan := func() {
		for _, sh := range shapes {
			for _, v := range kernels.Variants {
				if _, err := eng.Run(synth.NewShapePair(sh.M, sh.K, tokens, f), gemm.Options{Variant: v}); err != nil {
					l.failf("gemm.Engine.Run %s %s: %v", sh.Name, v, err)
				}
			}
		}
	}
	calls := float64(len(shapes) * len(kernels.Variants))
	l.m["gemm.plan_cold_us"] = l.timed("gemm.plan_cold", plan) * 1e6 / calls
	// The hit rates are read after every GEMM has been planned exactly
	// twice: one half is the floor, the rest is sharing between shapes.
	plan()
	hits, misses := eng.CostRecords.Stats()
	l.m["gemm.costmemo_hit_rate"] = rate(hits, misses)
	hits, misses = eng.Decisions.Stats()
	l.m["costmodel.cache_hit_rate"] = rate(hits, misses)
	warm := l.n(200, 5)
	l.m["gemm.plan_warm_us"] = l.timed("gemm.plan_warm", func() {
		for i := 0; i < warm; i++ {
			plan()
		}
	}) * 1e6 / (calls * float64(warm))

	n := l.n(2000, 20)
	l.m["costmodel.choose_cold_us"] = l.timed("costmodel.Choose", func() {
		for i := 0; i < n; i++ {
			sh := shapes[i%len(shapes)]
			if _, err := costmodel.Choose(eng.Model, f, sh.M, sh.K, tokens, &eng.Cfg); err != nil {
				l.failf("costmodel.Choose: %v", err)
			}
		}
	}) * 1e6 / float64(n)
	cache := costmodel.NewCache()
	for _, sh := range shapes {
		if _, err := cache.Choose(eng.Model, f, sh.M, sh.K, tokens, &eng.Cfg); err != nil {
			l.failf("costmodel.Cache.Choose: %v", err)
		}
	}
	hitN := l.n(2000000, 20000)
	l.m["costmodel.cache_hit_ns"] = l.timed("costmodel.Cache.Choose", func() {
		for i := 0; i < hitN; i++ {
			sh := shapes[i%len(shapes)]
			_, _ = cache.Choose(eng.Model, f, sh.M, sh.K, tokens, &eng.Cfg)
		}
	}) * 1e9 / float64(hitN)
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// layerKernel names a kernel design's metric suffix.
var kernelSuffix = map[kernels.Variant]string{
	kernels.Naive: "naive", kernels.LTC: "ltc", kernels.OP: "op",
	kernels.OPLC: "oplc", kernels.OPLCRC: "oplcrc", kernels.LoCaLUT: "localut",
}

// rungKernels times each design's cost program on the bank tile the
// planner gives the model's first FFN GEMM, on an accounting DPU.
func rungKernels(l *ladder, model dnn.ModelConfig, f quant.Format) {
	eng := benchEngine()
	eng.Exec.Mode = kernels.CyclesOnly
	tokens := 8 * model.SeqLen
	n := l.n(20, 1)
	for _, v := range kernels.Variants {
		name := "kernels.cost_program_us_per_tile." + kernelSuffix[v]
		rep, err := eng.Run(synth.NewShapePair(model.FFN, model.Hidden, tokens, f), gemm.Options{Variant: v})
		if err != nil {
			l.failf("gemm.Engine.Run ffn1 %s: %v", v, err)
			continue
		}
		var kn kernels.Kernel
		switch {
		case v == kernels.Naive:
			kn = kernels.NewNaiveKernel(eng.Costs)
		case v == kernels.LTC:
			kn = kernels.NewLTCKernel(eng.Costs)
		case v == kernels.OP:
			kn = kernels.NewOPKernel(eng.Costs, lut.MustSpec(f, rep.P))
		case v == kernels.OPLC:
			kn = kernels.NewOPLCKernel(eng.Costs, lut.MustSpec(f, rep.P))
		case v == kernels.LoCaLUT && rep.Streaming:
			kn = kernels.NewStreamKernel(eng.Costs, lut.MustSpec(f, rep.P), rep.K)
		default:
			kn = kernels.NewOPLCRCKernel(eng.Costs, lut.MustSpec(f, rep.P))
		}
		tile, err := kernels.NewShapeTile(rep.TileM, model.Hidden, rep.TileN, f)
		if err != nil {
			l.failf("kernels.NewShapeTile %s: %v", v, err)
			continue
		}
		ws := kernels.NewWorkspace()
		l.m[name] = l.timed(name, func() {
			for i := 0; i < n; i++ {
				req := &kernels.Request{DPU: pim.NewAccountingDPU(&eng.Cfg), Tile: tile, WS: ws}
				if _, err := kn.RunRequest(req); err != nil {
					l.failf("%s RunRequest: %v", v, err)
					return
				}
			}
		}) * 1e6 / float64(n)
	}
}

// rungObsReplay replays the recorder calls a request makes (async begin
// with its three args, one pass span with two, async end) and returns the
// nanoseconds per recorded event; it also prices the nil-recorder branch
// every other workload takes.
func rungObsReplay(l *ladder) float64 {
	n := l.n(300000, 10000)
	rec := obs.NewRecorder(1)
	s := l.timed("obs.Recorder.record", func() {
		for i := 0; i < n; i++ {
			t := float64(i) * 1e-3
			if rec.Sampled(i) {
				rec.BeginAsync(0, "req", i, "request", t,
					obs.Str("class", "default"), obs.Num("tokens", 128), obs.Num("out", 0))
			}
			rec.Span(1, 1, "prefill", t, 0.02, obs.Num("reqs", 1), obs.Num("tokens", 128))
			if rec.Sampled(i) {
				rec.EndAsync(0, "req", i, "request", t+0.02)
			}
		}
	})
	recNS := s * 1e9 / float64(rec.Len())
	l.m["obs.record_ns_per_span"] = recNS

	var none *obs.Recorder
	calls := l.n(20000000, 100000)
	s = l.timed("obs.Recorder.nil", func() {
		for i := 0; i < calls; i++ {
			if none.Sampled(i) {
				sinkFloat++
			}
			none.Span(1, 1, "prefill", 0, 0)
		}
	})
	l.m["obs.nil_recorder_ns_per_call"] = s * 1e9 / float64(2*calls)
	return recNS
}
