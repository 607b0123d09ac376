// Command perfbench is the repository's one benchmark: five seeded
// steady-state workloads, the end-to-end host metrics every later
// performance claim is stated in, the simulated statistics a host-only
// change must not move, and an outside-in ladder of per-layer metrics.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
//
// Usage:
//
//	go run ./cmd/perfbench                      every workload, round-robin reps
//	go run ./cmd/perfbench -traced              the traced pass: layer ladder
//	go run ./cmd/perfbench -seed 2 -out r.json  another seed; keep the results
//	go run ./cmd/perfbench -compare a.json b.json
//	go run ./cmd/perfbench --workload fleet_steady --seed 1 --seconds 15 --trace 0
//
// The last form is the acceptance driver's: one workload per process, reps
// until the time budget is spent, and one JSON object on the last line of
// standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
	seed := flag.Int64("seed", 1, "workload seed: the only input to workload generation")
	seconds := flag.Float64("seconds", 0, "measure for about this long per workload (0 = the fixed rep counts)")
	trace := flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = end-to-end metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	quick := flag.Bool("quick", false, "shorten simulated durations and the figure list (smoke scale; numbers are not comparable)")
	out := flag.String("out", "", "write the full results (and the spans of a traced pass) to this JSON file")
	compare := flag.Bool("compare", false, "compare two result files: perfbench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: perfbench -compare a.json b.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		ws = []workload{*w}
	}
	opt := passOptions{seed: *seed, quick: *quick, seconds: *seconds}
	var res *resultFile
	if *traced || *trace == 1 {
		res = tracedPass(ws, opt)
	} else {
		res = untracedPass(ws, opt)
	}
	res.print(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write %s: %v", *out, err)
		}
	}
	if *name != "" {
		fmt.Println(res.Workloads[0].driverLine(res.Meta.Traced))
	}
	if res.failed() > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// passOptions are the inputs of one pass over the workloads.
type passOptions struct {
	seed    int64
	quick   bool
	seconds float64 // per-workload time budget; 0 = workload.reps timed reps
}

// meta records where and how a result file was produced.
type meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
	Traced     bool   `json:"traced"`
}

func newMeta(opt passOptions, traced bool) meta {
	m := meta{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: opt.seed, Quick: opt.quick, Traced: traced}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// metricValue is one reported metric. Host metrics taken over several reps
// carry the sample's quartiles and extremes; n is too small for any
// percentile to have ten samples beyond it, so none is reported.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

func fromDist(d dist, unit string) metricValue {
	return metricValue{Value: d.Median, Unit: unit, Q1: d.Q1, Q3: d.Q3, Min: d.Min, Max: d.Max, N: d.N}
}

// workloadResult is one workload's row set in a result file.
type workloadResult struct {
	Name         string                 `json:"name"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Failures     []string               `json:"failures,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Detail holds display-only simulated rows: per-design feasible
	// rates, and each regenerated ratio beside its paper value.
	Detail map[string]float64 `json:"detail,omitempty"`
}

type resultFile struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
	Spans     []span           `json:"spans,omitempty"`
}

func (r *resultFile) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.OpsFailed
	}
	return n
}

// driverLine is the acceptance driver's result object: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func (w *workloadResult) driverLine(traced bool) string {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.name] = mv{w.Metrics[d.name].Value, d.unit} // a layer the workload does not use reads 0
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.OpsFailed == 0, w.OpsAttempted, w.OpsFailed, metrics})
	if err != nil {
		fatalf("encode result: %v", err) // a NaN metric: nothing sensible to print
	}
	return string(line)
}

// collector accumulates the reps of one workload.
type collector struct {
	w        *workload
	cold     *rep // rep 0: reported as setup_s, never averaged
	reps     []rep
	failures []string
	ops      int
	failed   int
}

// add books a rep's operations. A rep whose reports do not hash to rep
// 0's breaks the determinism floor and fails all of its operations.
func (c *collector) add(r rep) {
	c.ops += r.out.ops
	failed := len(r.out.failed)
	c.failures = append(c.failures, r.out.failed...)
	if c.cold != nil && r.digest != c.cold.digest {
		c.failures = append(c.failures, fmt.Sprintf("%s: report digest %x differs from rep 0's %x",
			c.w.name, r.digest[:8], c.cold.digest[:8]))
		failed = r.out.ops
	}
	if failed > r.out.ops {
		failed = r.out.ops
	}
	c.failed += failed
	if c.cold == nil {
		c.cold = &r
		return
	}
	c.reps = append(c.reps, r)
}

// hostMetrics summarizes the timed reps.
func (c *collector) hostMetrics() map[string]metricValue {
	col := func(f func(*rep) float64) dist {
		vals := make([]float64, len(c.reps))
		for i := range c.reps {
			vals[i] = f(&c.reps[i])
		}
		return summarize(vals)
	}
	perUnit := func(v uint64, r *rep) float64 {
		if r.out.units == 0 {
			return 0
		}
		return float64(v) / float64(r.out.units)
	}
	out := map[string]metricValue{"setup_s": {Value: c.cold.host.wall, Unit: metricUnit("setup_s"), N: 1}}
	for name, f := range map[string]func(*rep) float64{
		"wall_s":        func(r *rep) float64 { return r.host.wall },
		"cpu_s":         func(r *rep) float64 { return r.host.cpu },
		"allocs_per_op": func(r *rep) float64 { return perUnit(r.host.mallocs, r) },
		"bytes_per_op":  func(r *rep) float64 { return perUnit(r.host.bytes, r) },
		"peak_rss_mb":   func(r *rep) float64 { return r.host.rssMB },
	} {
		out[name] = fromDist(col(f), metricUnit(name))
	}
	return out
}

func (c *collector) result() workloadResult {
	res := workloadResult{Name: c.w.name, OpsAttempted: c.ops, OpsFailed: c.failed,
		Failures: c.failures, Metrics: c.hostMetrics(), Detail: map[string]float64{}}
	for name, v := range c.cold.out.detail {
		res.Detail[name] = v
	}
	var raw, speed []float64
	for i := range c.reps {
		raw = append(raw, c.reps[i].host.rawWall)
		speed = append(speed, c.reps[i].host.speed)
	}
	res.Detail["wall_raw_s"] = summarize(raw).Median
	res.Detail["machine_speed"] = summarize(speed).Median
	for name, v := range c.cold.out.sim {
		res.Metrics[name] = metricValue{Value: v, Unit: metricUnit(name)}
	}
	return res
}

// untracedPass measures the end-to-end metrics. Reps are scheduled
// round-robin across workloads (rep i of every workload before rep i+1 of
// any) so that slow drift of the host lands on all workloads alike. Under
// a time budget the rounds go on until it is spent, everything between
// the reps included, with at least three timed reps so the quartiles
// exist; without one each workload gets its fixed count.
func untracedPass(ws []workload, opt passOptions) *resultFile {
	cols := make([]*collector, len(ws))
	for i := range ws {
		cols[i] = &collector{w: &ws[i]}
	}
	var start time.Time
	for round := 0; ; round++ {
		if round == 1 {
			start = time.Now()
		}
		ran := false
		for _, c := range cols {
			done := len(c.reps)
			more := done < c.w.reps
			if opt.seconds > 0 {
				more = done < 3 || time.Since(start).Seconds() < opt.seconds*float64(len(ws))
			}
			if round > 0 && !more {
				continue
			}
			r := measure(c.w, opt.seed, opt.quick, noSpan)
			r.out.release()
			c.add(r)
			ran = true
		}
		if !ran {
			break
		}
	}
	res := &resultFile{Meta: newMeta(opt, false)}
	for _, c := range cols {
		res.Workloads = append(res.Workloads, c.result())
	}
	return res
}

// tracedPass measures the per-layer metrics: per workload a cold rep, then
// untraced and traced reps in alternation (their ratio is the tracing
// overhead), then the workload's ladder. Layer metrics are host times as
// the clock read them: they are compared with each other inside one
// process, not against a bound.
func tracedPass(ws []workload, opt passOptions) *resultFile {
	tr := newTracer()
	res := &resultFile{Meta: newMeta(opt, true)}
	for i := range ws {
		w := &ws[i]
		tr.workload = w.name
		c := &collector{w: w}
		c.add(measure(w, opt.seed, opt.quick, noSpan))
		var plainRef, spannedRef, spanned []float64 // Ref: at reference machine speed
		best := math.Inf(1)
		var last rep
		var gcFrac, gcCycles, gcPause []float64
		start := time.Now()
		for pair := 0; pair < 2 || time.Since(start).Seconds() < opt.seconds/3; pair++ {
			if last.out != nil {
				last.out.release() // the ladder reads the final rep's only
			}
			r := measure(w, opt.seed, opt.quick, noSpan)
			r.out.release()
			c.add(r)
			plainRef = append(plainRef, r.host.wall)

			tr.rep = pair + 1
			end := tr.begin("rep")
			last = measure(w, opt.seed, opt.quick, tr.begin)
			end()
			c.add(last)
			spanned = append(spanned, last.host.rawWall)
			spannedRef = append(spannedRef, last.host.wall)
			for _, r := range []rep{r, last} {
				best = math.Min(best, r.host.rawWall)
				gcFrac = append(gcFrac, r.host.gcCPU*r.host.speed/r.host.cpu)
				gcCycles = append(gcCycles, float64(r.host.gcCycles))
				gcPause = append(gcPause, float64(r.host.gcPauseNs)*1e-6)
			}
		}
		l := &ladder{seed: opt.seed, quick: opt.quick, out: last.out, tr: tr,
			wall: summarize(spanned).Median, best: best, m: map[string]float64{}}
		l.m["trace_overhead_frac"] = summarize(spannedRef).Median/summarize(plainRef).Median - 1
		l.m["runtime.gc_cpu_frac"] = summarize(gcFrac).Median
		l.m["runtime.gc_cycles"] = summarize(gcCycles).Median
		l.m["runtime.gc_pause_ms"] = summarize(gcPause).Median
		for name, v := range last.out.sim {
			l.m[name] = v
		}
		end := tr.begin("ladder")
		w.ladder(l)
		end()

		wr := workloadResult{Name: w.name, OpsAttempted: c.ops + 1, OpsFailed: c.failed,
			Failures: append(c.failures, l.fail...), Metrics: map[string]metricValue{}, Detail: last.out.detail}
		if len(l.fail) > 0 {
			wr.OpsFailed++ // the ladder is one more operation
		}
		for _, d := range perLayerMetrics {
			wr.Metrics[d.name] = metricValue{Value: l.m[d.name], Unit: d.unit}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	res.Spans = tr.spans
	return res
}

// print writes every metric by name with its unit, and the operation
// counts, one workload after another.
func (r *resultFile) print(f *os.File) {
	m := r.Meta
	fmt.Fprintf(f, "perfbench commit %s %s nproc %d GOMAXPROCS %d seed %d quick %v traced %v\n",
		m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Seed, m.Quick, m.Traced)
	for _, w := range r.Workloads {
		fmt.Fprintf(f, "\n%s: ops_attempted %d ops_failed %d\n", w.Name, w.OpsAttempted, w.OpsFailed)
		for _, msg := range w.Failures {
			fmt.Fprintf(f, "  FAILED %s\n", msg)
		}
		names := make([]string, 0, len(w.Metrics))
		for name := range w.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := w.Metrics[name]
			fmt.Fprintf(f, "  %-44s %14.6g %-6s", name, v.Value, v.Unit)
			if v.N > 1 {
				fmt.Fprintf(f, " q1 %.6g q3 %.6g min %.6g max %.6g n %d (too few reps for a tail percentile)",
					v.Q1, v.Q3, v.Min, v.Max, v.N)
			}
			fmt.Fprintln(f)
		}
		if wall, ok := w.Metrics["wall_s"]; ok && wall.Value > 0 {
			if units := w.Detail["units"]; units > 0 {
				fmt.Fprintf(f, "  %-44s %14.6g %-6s (display only: ops / wall_s)\n", "ops_per_host_s", units/wall.Value, "1/s")
			}
		}
		names = names[:0]
		for name := range w.Detail {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			line := fmt.Sprintf("  %-44s %14.6g", name, w.Detail[name])
			if rest, ok := strings.CutPrefix(name, "ratio."); ok {
				for _, pc := range paperRatios {
					if pc.fig+"."+pc.key == rest {
						line += fmt.Sprintf("  paper %.2f (%s)", pc.paper, pc.cite)
					}
				}
			}
			fmt.Fprintln(f, line)
		}
	}
}
