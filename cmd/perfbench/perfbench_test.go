package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/internal/cluster"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the tables in this
// package: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, package %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (bounded && g.Bound != w.bound) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, package %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, g.Name)
			}
			seen[g.Name] = true
			if bounded && !(g.Bound > 0 && g.Bound <= 0.25) {
				t.Errorf("%s metric %q: bound %g outside (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, true)
	check("per_layer", b.PerLayer, perLayerMetrics, false)
}

// quickPass runs the smallest pass the driver's mode allows: a cold rep
// and three timed reps per workload at the quick scale.
func quickPass(seed int64) *resultFile {
	return untracedPass(workloads, passOptions{seed: seed, quick: true, seconds: 1e-9})
}

func findWorkload(t *testing.T, r *resultFile, name string) *workloadResult {
	t.Helper()
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	t.Fatalf("no workload %q in the results", name)
	return nil
}

// TestSmoke runs every workload untraced and traced at the quick scale:
// every metric BENCHMARK.json names is emitted, finite and carries its
// unit; nothing fails; the simulated statistics repeat exactly for one
// seed and the traffic ones move with the seed.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	seed1 := quickPass(1)
	traced := tracedPass(workloads, passOptions{seed: 1, quick: true})

	for _, pass := range []struct {
		res  *resultFile
		defs []jsonMetric
	}{{seed1, b.EndToEnd}, {traced, b.PerLayer}} {
		for _, bw := range b.Workloads {
			w := findWorkload(t, pass.res, bw.Name)
			if w.OpsAttempted < 1 || w.OpsFailed != 0 {
				t.Errorf("%s: ops_attempted %d ops_failed %d: %v", w.Name, w.OpsAttempted, w.OpsFailed, w.Failures)
			}
			for _, d := range pass.defs {
				v, ok := w.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s: emitted %v as %+v, want a finite value in %q", w.Name, d.Name, ok, v, d.Unit)
				}
				if !pass.res.Meta.Traced && !(v.Value > 0) {
					t.Errorf("%s %s: end-to-end metric reads %g, must be positive", w.Name, d.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(w.driverLine(pass.res.Meta.Traced)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", w.Name, err)
			}
			if !line.Correct || line.Attempted != w.OpsAttempted || len(line.Metrics) != len(pass.defs) {
				t.Errorf("%s: driver line correct %v attempted %d with %d metrics, want true, %d, %d",
					w.Name, line.Correct, line.Attempted, len(line.Metrics), w.OpsAttempted, len(pass.defs))
			}
		}
	}

	produced := 0
	for _, w1 := range seed1.Workloads {
		wt := findWorkload(t, traced, w1.Name)
		seed2 := workloadByName(w1.Name).run(2, true, noSpan)
		if len(seed2.failed) > 0 {
			t.Errorf("%s: seed 2 fails: %v", w1.Name, seed2.failed)
		}
		moved := false
		for _, d := range simMetrics {
			v1, ok := w1.Metrics[d.name]
			if !ok {
				if wt.Metrics[d.name].Value != 0 {
					t.Errorf("%s %s: traced pass reads %g for a statistic the workload does not produce", w1.Name, d.name, wt.Metrics[d.name].Value)
				}
				continue
			}
			produced++
			if got := wt.Metrics[d.name].Value; got != v1.Value {
				t.Errorf("%s %s: %v untraced, %v traced, same seed", w1.Name, d.name, v1.Value, got)
			}
			if seed2.sim[d.name] != v1.Value {
				moved = true
			}
		}
		// The figures never read their seeded operands in cycles-only mode.
		if traffic := w1.Name != "figures_cyclesonly"; traffic && !moved {
			t.Errorf("%s: no simulated statistic differs between seed 1 and seed 2", w1.Name)
		}
	}
	if produced != 13 {
		t.Errorf("%d workload x simulated-statistic pairs, want 13 (3+4+3 fleet, 1 search, 2 figures)", produced)
	}
	if len(traced.Spans) == 0 {
		t.Error("traced pass recorded no spans")
	}
}

// TestDirectClusterMatchesFacade pins the config the traced pass hands to
// cluster.Run: it must yield the headline counts System.ServeCluster does.
func TestDirectClusterMatchesFacade(t *testing.T) {
	for _, cfg := range []localut.ClusterConfig{
		fleetSteadyConfig(1, true), fleetChaosConfig(1, true), fleetFaultsConfig(1, true),
	} {
		facade, err := localut.NewSystem(localut.WithSeed(cfg.Seed)).ServeCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cluster.Run(directCluster(cfg, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if direct.Admitted != facade.Admitted || direct.Completed != facade.Completed || direct.Shed != facade.Shed ||
			direct.Latency.P99 != facade.Latency.P99 {
			t.Errorf("%s x%d: direct admitted/completed/shed/p99 %d/%d/%d/%v, facade %d/%d/%d/%v", facade.Model, cfg.Instances,
				direct.Admitted, direct.Completed, direct.Shed, direct.Latency.P99,
				facade.Admitted, facade.Completed, facade.Shed, facade.Latency.P99)
		}
	}
}

func TestPaperRatios(t *testing.T) {
	want := map[string]float64{
		"fig09.geomean_over_naive": 2.87, "fig09.geomean_over_ltc": 1.77,
		"fig10.geomean_over_naive": 1.77, "fig10.geomean_over_ltc": 1.82,
		"fig19.prefill_speedup": 1.34, "fig19.decode_speedup": 1.27,
		"fig20.geomean": 2.04,
	}
	if len(paperRatios) != len(want) {
		t.Fatalf("%d paper ratios, want %d", len(paperRatios), len(want))
	}
	for _, pc := range paperRatios {
		if want[pc.fig+"."+pc.key] != pc.paper || pc.cite == "" {
			t.Errorf("paper ratio %+v: want %v with a citation", pc, want[pc.fig+"."+pc.key])
		}
	}
}

// TestSummarize pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance driver uses.
func TestSummarize(t *testing.T) {
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.Min != 1 || d.Max != 10 || d.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75 median 5.5 q3 8.25", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.Q1 != 1 || d.Median != 2 || d.Q3 != 3 {
		t.Errorf("summarize(1..3) = %+v, want q1 1 median 2 q3 3", d)
	}
}

func TestJudge(t *testing.T) {
	wall := *metricByName("wall_s") // bound 0.25 would hide the cases below
	wall.bound = 0.10
	sim := *metricByName("sim_p99_s")
	tight := func(v float64) metricValue {
		return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 7}
	}
	wide := func(v float64) metricValue {
		return metricValue{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 7}
	}
	for _, tc := range []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{wall, tight(1), tight(1.05), "same"},
		{wall, tight(1), tight(1.2), "worse"},
		{wall, tight(1), tight(0.8), "better"},
		{wall, wide(1), wide(1.15), "unresolved"},
		{wall, wide(1), wide(1.5), "worse"}, // ranges no longer overlap
		{sim, metricValue{Value: 0.25}, metricValue{Value: 0.25}, "same"},
		{sim, metricValue{Value: 0.25}, metricValue{Value: 0.25000001}, "changed"},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.d.name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}
