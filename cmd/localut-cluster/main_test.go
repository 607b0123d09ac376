package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenConfig is the fixed workload behind the -json regression test: a
// small faulted fleet with deadlines and retries, touching the report's
// reliability rows, the fault timeline and the per-instance/per-class
// sections.
func goldenConfig() localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       4,
		Replicas:        2,
		RatePerSec:      20,
		DurationSeconds: 20,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 5},
		Faults: localut.ClusterFaults{
			Enabled:     true,
			MTTFSeconds: 15,
			MTTRSeconds: 1,
		},
	}
}

// renderJSON produces exactly what `localut-cluster -json` writes: the
// report through an indenting encoder.
func renderJSON(t *testing.T, cfg localut.ClusterConfig) []byte {
	t.Helper()
	sys := localut.NewSystem(localut.WithSeed(1))
	rep, err := sys.ServeCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// matchGolden compares got with testdata/name byte for byte, rewriting the
// file first under -update. A mismatch means what the file pins changed;
// that must be deliberate — run `go test ./cmd/localut-cluster -update` to
// re-bless.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-bless with -update if intentional)", path)
	}
}

// TestClusterJSONGolden pins the -json output byte for byte on a fixed
// seed and a faulted-fleet config. A diff means the report schema, the
// simulation's numbers or the fault schedule changed — all must be
// deliberate; run `go test ./cmd/localut-cluster -update` to re-bless.
func TestClusterJSONGolden(t *testing.T) {
	matchGolden(t, "cluster_bert_w1a3_faults.golden.json", renderJSON(t, goldenConfig()))
}

// chaosGoldenConfig is the fixed workload behind the chaos -json
// regression test: the full failure mix — independent faults, correlated
// domain outages, gray-failure stragglers and hedging — with the
// conservation auditor on, touching every chaos counter and timeline
// kind in the report schema.
func chaosGoldenConfig() localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		Replicas:        2,
		OutTokens:       4,
		RatePerSec:      30,
		DurationSeconds: 30,
		Seed:            2,
		Audit:           true,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 8},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 120, MTTRSeconds: 2},
		Domains:         localut.ClusterDomains{Enabled: true, Count: 4, MTBFSeconds: 60, MTTRSeconds: 2},
		Stragglers:      localut.ClusterStragglers{Enabled: true, MTBFSeconds: 60, MeanDurationSeconds: 5, Slowdown: 4},
		Hedge:           localut.ClusterHedge{Enabled: true, DelaySeconds: 0.5},
	}
}

// TestClusterChaosJSONGolden pins the -json output byte for byte on a
// chaos fleet: domain outages and straggler windows land in the report
// and the timeline, hedge resolutions in the report counters. Re-bless
// with -update.
func TestClusterChaosJSONGolden(t *testing.T) {
	matchGolden(t, "cluster_opt125m_w1a3_chaos.golden.json", renderJSON(t, chaosGoldenConfig()))
}

// twoClassHedgeConfig is the fixed workload behind the ordered-stream
// regression test: two classes whose hedge delays differ (0.2 s and 0.8 s),
// so hedge timers are created out of time order across classes; the packed
// scheduler over bounded queues, so hedge losers are cancelled out of the
// middle of a queue the packer scans and MaxQueue admission reads its
// length; faults and stragglers on, audited.
func twoClassHedgeConfig() localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances: 4,
		Replicas:  2,
		OutTokens: 4,
		Scheduler: localut.SchedulePacked,
		MaxQueue:  32,
		Classes: []localut.ClusterClass{
			{Name: "interactive", RatePerSec: 70, MaxTokens: 128, MeanTokens: 64, HedgeDelaySeconds: 0.2},
			{Name: "batch", RatePerSec: 35, HedgeDelaySeconds: 0.8},
		},
		DurationSeconds: 30,
		Seed:            3,
		Audit:           true,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 8},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 60, MTTRSeconds: 2},
		Stragglers:      localut.ClusterStragglers{Enabled: true, MTBFSeconds: 30, MeanDurationSeconds: 5, Slowdown: 4},
		Hedge:           localut.ClusterHedge{Enabled: true, DelaySeconds: 0.5},
	}
}

// TestClusterTwoClassHedgeGolden pins the two-class hedged report byte for
// byte. The golden was rendered by the eager-cancel, heap-only event loop
// that preceded ordered event lanes and lazy queue cancellation, so it
// holds both to the old behaviour; re-bless with -update only for a
// deliberate model change.
func TestClusterTwoClassHedgeGolden(t *testing.T) {
	got := renderJSON(t, twoClassHedgeConfig())
	matchGolden(t, "cluster_two_class_hedge.golden.json", got)
	var rep localut.ClusterReport
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HedgeCancels == 0 || rep.HedgeWins == 0 || rep.ShedQueueFull == 0 || rep.Crashes == 0 || rep.StragglerWindows == 0 {
		t.Errorf("scenario no longer exercises what it pins: %d hedge cancels, %d hedge wins, %d queue-full sheds, %d crashes, %d straggler windows",
			rep.HedgeCancels, rep.HedgeWins, rep.ShedQueueFull, rep.Crashes, rep.StragglerWindows)
	}
}

// TestClusterChaosGoldenHasChaos guards the chaos golden scenario: every
// failure mechanism must actually fire, or the regression test pins a
// fleet that never exercised the chaos paths.
func TestClusterChaosGoldenHasChaos(t *testing.T) {
	sys := localut.NewSystem(localut.WithSeed(1))
	rep, err := sys.ServeCluster(chaosGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DomainOutages == 0 {
		t.Error("chaos golden produced no domain outages")
	}
	if rep.StragglerWindows == 0 {
		t.Error("chaos golden produced no straggler windows")
	}
	if rep.HedgesIssued == 0 || rep.HedgeWins == 0 {
		t.Errorf("chaos golden produced %d hedges and %d hedge wins, want both > 0", rep.HedgesIssued, rep.HedgeWins)
	}
	if rep.HedgesIssued != rep.HedgeCancels+rep.HedgeDrops {
		t.Errorf("hedge ledger leak: %d issued != %d cancels + %d drops",
			rep.HedgesIssued, rep.HedgeCancels, rep.HedgeDrops)
	}
	kinds := map[string]bool{}
	for _, ev := range rep.Timeline {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"fault", "domain-outage", "straggler"} {
		if !kinds[k] {
			t.Errorf("chaos golden timeline has no %q events", k)
		}
	}
}

// directConfig spells out, field by field, the cluster.Config that
// System.ServeCluster documents for cfg on a default system with the given
// seed: testbed engine and energy model (the zero values), flat fields
// into the instance template, plans passed through.
func directConfig(t *testing.T, cfg localut.ClusterConfig, seed int64) cluster.Config {
	t.Helper()
	var model dnn.ModelConfig
	for _, m := range []dnn.ModelConfig{dnn.BERTBase(), dnn.OPT125M(), dnn.ViTBase()} {
		if m.Name == cfg.Model.String() {
			model = m
		}
	}
	format, err := quant.ParseFormat(cfg.Format.Name())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	return cluster.Config{
		Base: serve.Config{
			Model: model, Fmt: format, Variant: kernels.Variant(cfg.Design),
			Replicas: cfg.Replicas, MaxBatch: cfg.MaxBatch, Scheduler: cfg.Scheduler,
			MinTokens: cfg.MinTokens, MaxTokens: cfg.MaxTokens, MeanTokens: cfg.MeanTokens,
			TokenQuantum: cfg.TokenQuantum,
			OutTokens:    cfg.OutTokens, OutTokensMean: cfg.OutTokensMean, OutTokensMax: cfg.OutTokensMax,
			MaxQueue: cfg.MaxQueue, KVPolicy: cfg.KVPolicy,
		},
		Instances: cfg.Instances, Router: cfg.Router, Admission: cfg.Admission,
		Classes: cfg.Classes, RatePerSec: cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds, Seed: seed,
		Autoscaler: cfg.Autoscaler, Faults: cfg.Faults, Domains: cfg.Domains,
		Stragglers: cfg.Stragglers, Hedge: cfg.Hedge, Retry: cfg.Retry,
		Audit: cfg.Audit, DeadlineSeconds: cfg.Deadlines.DefaultSeconds,
	}
}

// TestFacadeAddsNothing runs both golden configs through System.ServeCluster
// and through cluster.Run directly and requires the two reports equal in
// every field, timeline included: the public report is the internal one,
// not a copy that could drop or rename a field.
func TestFacadeAddsNothing(t *testing.T) {
	for name, cfg := range map[string]localut.ClusterConfig{"faults": goldenConfig(), "chaos": chaosGoldenConfig()} {
		facade, err := localut.NewSystem(localut.WithSeed(1)).ServeCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cluster.Run(directConfig(t, cfg, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(facade.Timeline) == 0 || facade.Crashes == 0 {
			t.Errorf("%s: golden config no longer exercises faults and the timeline", name)
		}
		if !reflect.DeepEqual(facade, direct) {
			t.Errorf("%s: ServeCluster's report differs from cluster.Run's\nfacade: %+v\ndirect: %+v", name, facade, direct)
		}
	}
}

// TestClusterJSONGoldenStable guards the golden test itself: two fresh
// systems must render identical bytes, or the golden file would flake.
func TestClusterJSONGoldenStable(t *testing.T) {
	a := renderJSON(t, goldenConfig())
	b := renderJSON(t, goldenConfig())
	if !bytes.Equal(a, b) {
		t.Fatal("same config rendered different JSON across runs")
	}
}

// TestClusterGoldenHasFaults guards the scenario: the golden workload
// must actually exercise the fault layer, or the regression test pins
// nothing interesting.
func TestClusterGoldenHasFaults(t *testing.T) {
	sys := localut.NewSystem(localut.WithSeed(1))
	rep, err := sys.ServeCluster(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Error("golden scenario produced no crashes")
	}
	faults := 0
	for _, ev := range rep.Timeline {
		if ev.Kind == "fault" {
			faults++
		}
	}
	if faults == 0 {
		t.Error("golden scenario produced no fault timeline")
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Errorf("accounting leak: admitted %d != completed %d + shed %d",
			rep.Admitted, rep.Completed, rep.Shed)
	}
}

// TestSummaryTableReliabilityRows sanity-checks the table renderer: a
// faulted run must surface the reliability rows.
func TestSummaryTableReliabilityRows(t *testing.T) {
	sys := localut.NewSystem(localut.WithSeed(1))
	rep, err := sys.ServeCluster(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := summaryTable(rep).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{"goodput (req/s)", "good / late / shed", "retries",
		"reprefill tokens", "crashes / degraded", "unavailable (s)", "time-to-recover"} {
		if !bytes.Contains([]byte(out), []byte(row)) {
			t.Errorf("summary table missing row %q:\n%s", row, out)
		}
	}
	buf.Reset()
	if err := timelineTable(rep).Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"fault", "crash", "repair"} {
		if !bytes.Contains(buf.Bytes(), []byte(cell)) {
			t.Errorf("fleet timeline missing %q:\n%s", cell, buf.String())
		}
	}
}

// obsRun runs one cluster workload with tracing and metrics captured
// in memory, returning the two exports.
func obsRun(t *testing.T, cfg localut.ClusterConfig, sampleN int, interval float64) (traceJSON, metricsCSV []byte) {
	t.Helper()
	var tb, mb bytes.Buffer
	cfg.Obs = localut.ObsConfig{
		TraceWriter: &tb, TraceSampleN: sampleN,
		MetricsWriter: &mb, MetricsIntervalSeconds: interval,
	}
	sys := localut.NewSystem(localut.WithSeed(1))
	if _, err := sys.ServeCluster(cfg); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// traceFile is the Chrome trace-event JSON envelope the export writes.
type traceFile struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

// TestTraceGolden pins the Chrome trace export byte for byte on the
// faulted golden workload, and checks it is a well-formed trace-event
// file. Re-bless with -update after deliberate changes.
func TestTraceGolden(t *testing.T) {
	got, _ := obsRun(t, goldenConfig(), 1, 1)
	matchGolden(t, "cluster_bert_w1a3_faults.trace.golden.json", got)
	var tf traceFile
	if err := json.Unmarshal(got, &tf); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("malformed trace file: unit %q, %d events", tf.DisplayTimeUnit, len(tf.TraceEvents))
	}
	phases := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph] = true
	}
	for _, ph := range []string{"M", "X", "i", "b", "e"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events (metadata/span/instant/async expected)", ph)
		}
	}
}

// TestObsDeterministic pins both exports byte for byte across fresh
// systems: observability must be a pure function of config and seed.
func TestObsDeterministic(t *testing.T) {
	tr1, m1 := obsRun(t, goldenConfig(), 1, 1)
	tr2, m2 := obsRun(t, goldenConfig(), 1, 1)
	if !bytes.Equal(tr1, tr2) {
		t.Error("trace export diverged across runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics export diverged across runs")
	}
}

// TestTraceSampling checks 1-in-N request sampling: a sampled trace
// must carry strictly fewer request-lifecycle (async begin) events, and
// fewer total bytes, than a full one.
func TestTraceSampling(t *testing.T) {
	full, _ := obsRun(t, goldenConfig(), 1, 1)
	sampled, _ := obsRun(t, goldenConfig(), 8, 1)
	count := func(b []byte) int { return bytes.Count(b, []byte(`"ph":"b"`)) }
	if nf, ns := count(full), count(sampled); ns == 0 || ns >= nf {
		t.Errorf("sampling did not thin request spans: full %d, 1-in-8 %d", nf, ns)
	}
	if len(sampled) >= len(full) {
		t.Errorf("sampled trace (%d bytes) not smaller than full (%d bytes)", len(sampled), len(full))
	}
}

// TestObsEdgeCases covers the degenerate runs the exporters must not
// choke on: an arrival window with (almost) no traffic, a run where
// everything is shed, and a metrics interval longer than the run.
func TestObsEdgeCases(t *testing.T) {
	t.Run("near-empty-window", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Faults = localut.ClusterFaults{}
		cfg.RatePerSec = 0.001
		cfg.DurationSeconds = 5
		tr, mc := obsRun(t, cfg, 1, 1)
		var tf traceFile
		if err := json.Unmarshal(tr, &tf); err != nil {
			t.Fatalf("trace invalid on near-empty window: %v", err)
		}
		if lines := bytes.Count(mc, []byte("\n")); lines < 2 {
			t.Errorf("metrics export missing header or t=0 row:\n%s", mc)
		}
	})
	t.Run("all-shed", func(t *testing.T) {
		// Deadline sheds fire for work that expires while queued, so the
		// fleet must be driven far past saturation.
		cfg := goldenConfig()
		cfg.Faults = localut.ClusterFaults{}
		cfg.RatePerSec = 2000
		cfg.DurationSeconds = 2
		cfg.Deadlines = localut.ClusterDeadlines{DefaultSeconds: 1e-6}
		var tb, mb bytes.Buffer
		cfg.Obs = localut.ObsConfig{TraceWriter: &tb, MetricsWriter: &mb}
		sys := localut.NewSystem(localut.WithSeed(1))
		rep, err := sys.ServeCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Good != 0 || rep.Shed == 0 {
			t.Fatalf("deadline 1µs still produced %d good (%d shed)", rep.Good, rep.Shed)
		}
		var tf traceFile
		if err := json.Unmarshal(tb.Bytes(), &tf); err != nil {
			t.Fatalf("trace invalid on all-shed run: %v", err)
		}
	})
	t.Run("interval-longer-than-run", func(t *testing.T) {
		cfg := goldenConfig()
		cfg.Faults = localut.ClusterFaults{}
		_, mc := obsRun(t, cfg, 1, 1e6)
		// Header, the t=0 row, and the final flush at the makespan.
		if lines := bytes.Count(mc, []byte("\n")); lines != 3 {
			t.Errorf("want header + 2 rows when the interval exceeds the run, got:\n%s", mc)
		}
	})
}

// TestTriggerFlagsRejectNegativeAndNaN: each chaos layer is switched on by
// a positive trigger flag, so a negative or NaN trigger used to mean "off" —
// a healthy fleet and exit 0 where -deadline -1 or -mttr -1 are errors.
// fleetConfig must refuse it and name the flag; zero and positive values
// still mean off and on.
func TestTriggerFlagsRejectNegativeAndNaN(t *testing.T) {
	config := func(args ...string) (localut.ClusterConfig, error) {
		t.Helper()
		var o options
		fs := flag.NewFlagSet("localut-cluster", flag.ContinueOnError)
		o.register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return o.fleetConfig()
	}
	for _, tc := range []struct{ flag, value string }{
		{"-hedge-delay", "-1"}, {"-hedge-delay", "NaN"},
		{"-mttf", "-5"}, {"-mttf", "NaN"},
		{"-straggler-mtbf", "-1"}, {"-straggler-mtbf", "NaN"},
		{"-domains", "-2"},
	} {
		if _, err := config(tc.flag, tc.value); err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s %s: got %v, want an error naming the flag", tc.flag, tc.value, err)
		}
	}
	cfg, err := config("-hedge-delay", "0.5", "-mttf", "30", "-straggler-mtbf", "60", "-domains", "4", "-domain-mtbf", "20")
	if err != nil || !cfg.Hedge.Enabled || !cfg.Faults.Enabled || !cfg.Stragglers.Enabled || !cfg.Domains.Enabled {
		t.Errorf("positive triggers: %v, layers enabled hedge=%t faults=%t stragglers=%t domains=%t",
			err, cfg.Hedge.Enabled, cfg.Faults.Enabled, cfg.Stragglers.Enabled, cfg.Domains.Enabled)
	}
	cfg, err = config()
	if err != nil || cfg.Hedge.Enabled || cfg.Faults.Enabled || cfg.Stragglers.Enabled || cfg.Domains.Enabled {
		t.Errorf("zero triggers: %v, layers enabled hedge=%t faults=%t stragglers=%t domains=%t",
			err, cfg.Hedge.Enabled, cfg.Faults.Enabled, cfg.Stragglers.Enabled, cfg.Domains.Enabled)
	}
}

// TestParseClasses covers the class-flag parser.
func TestParseClasses(t *testing.T) {
	got, err := parseClasses("interactive:300:200, batch:100")
	if err != nil || len(got) != 2 || got[0].AdmitRatePerSec != 200 || got[1].RatePerSec != 100 {
		t.Errorf("parseClasses = %+v, %v", got, err)
	}
	for _, bad := range []string{"x", "a:b", "a:-1", "a:1:0", "a:1:2:3"} {
		if _, err := parseClasses(bad); err == nil {
			t.Errorf("parseClasses(%q) accepted", bad)
		}
	}
}

// wideLeastOutstandingConfig is the fixed workload behind the wide-fleet
// regression test: a least-outstanding fleet two bitset words wide (66
// members) under about 1.2x overload. The autoscaler drains member 65 at
// the first tick with work aboard and then launches members 66 to 68 while
// arrivals still flow, so the router meets IDs created mid-run; hedging at
// 0.15 s runs the fewest-outstanding hedge pick beside the router's;
// independent faults with a degraded fraction, two domain outages that
// take 13 members at a time and straggler windows move members out of and
// back into the routable set; 16-deep queues fill, so the router's pick is
// refused and the first member with room takes the request; 1.5 s
// deadlines expire queued work inside Dispatch. Audited.
func wideLeastOutstandingConfig() localut.ClusterConfig {
	return localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       66,
		Replicas:        2,
		OutTokens:       4,
		MaxQueue:        16,
		Router:          localut.RouteLeastOutstanding,
		RatePerSec:      1350,
		DurationSeconds: 5,
		Seed:            4,
		Audit:           true,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 1.5},
		Autoscaler: localut.ClusterAutoscaler{Enabled: true, MinInstances: 64, MaxInstances: 68,
			IntervalSeconds: 1, SLOSeconds: 0.2, ScaleDownFactor: 0.99, WarmupSeconds: 0.5, DrainSeconds: 0.5},
		Faults:     localut.ClusterFaults{Enabled: true, MTTFSeconds: 60, MTTRSeconds: 0.5, DegradedFraction: 0.4, LUTRematGBps: 400},
		Domains:    localut.ClusterDomains{Enabled: true, Count: 5, MTBFSeconds: 12, MTTRSeconds: 0.5},
		Stragglers: localut.ClusterStragglers{Enabled: true, MTBFSeconds: 60, MeanDurationSeconds: 5, Slowdown: 4},
		Hedge:      localut.ClusterHedge{Enabled: true, DelaySeconds: 0.15},
	}
}

// TestClusterWideLeastOutstandingGolden pins the wide least-outstanding
// report byte for byte. The golden was rendered by the router and the hedge
// pick that scanned the routable list on every request, before the load
// index replaced both scans, so it holds the index to their every choice;
// re-bless with -update only for a deliberate model change.
func TestClusterWideLeastOutstandingGolden(t *testing.T) {
	got := renderJSON(t, wideLeastOutstandingConfig())
	matchGolden(t, "cluster_wide_least_outstanding.golden.json", got)
	var rep localut.ClusterReport
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	launched := 0 // requests served by members the initial fleet did not have
	for _, ir := range rep.Instances {
		if ir.ID >= rep.InstancesInitial {
			launched += ir.Requests
		}
	}
	if rep.Router != "least-outstanding" || rep.InstancesInitial < 66 || launched == 0 ||
		rep.HedgeCancels == 0 || rep.HedgeDrops == 0 || rep.Crashes == 0 || rep.DegradedEvents == 0 ||
		rep.DomainOutages == 0 || rep.StragglerWindows == 0 || rep.ShedQueueFull == 0 || rep.ShedExpired == 0 || rep.Retries == 0 {
		t.Errorf("scenario no longer exercises what it pins: %s router over %d members, %d requests on launched members, %d hedge cancels, %d hedge drops, %d crashes, %d degraded, %d domain outages, %d straggler windows, %d queue-full and %d expired sheds, %d retries",
			rep.Router, rep.InstancesInitial, launched, rep.HedgeCancels, rep.HedgeDrops, rep.Crashes, rep.DegradedEvents,
			rep.DomainOutages, rep.StragglerWindows, rep.ShedQueueFull, rep.ShedExpired, rep.Retries)
	}
}

// execute parses args with the command's own flag registration and runs
// the mode they select, returning what it wrote.
func execute(args ...string) ([]byte, error) {
	var o options
	fs := flag.NewFlagSet("localut-cluster", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := o.execute(fs, &buf)
	return buf.Bytes(), err
}

// sweep runs a -csv sweep and returns its rows keyed by column header.
func sweep(t *testing.T, args ...string) []map[string]string {
	t.Helper()
	out, err := execute(append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]map[string]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, col := range recs[0] {
			row[col] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows
}

// num reads a numeric cell.
func num(t *testing.T, row map[string]string, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("column %q: %v (row %v)", col, err, row)
	}
	return v
}

// TestSweepFleetScaling pins the -sweep's purpose: at an offered load that
// saturates one appliance, adding appliances cuts p99 latency and raises
// drain throughput.
func TestSweepFleetScaling(t *testing.T) {
	rows := sweep(t, "-model", "bert-base", "-duration", "2s", "-sweep", "600", "-fleets", "1,4")
	if len(rows) != 2 || rows[0]["fleet"] != "1" || rows[1]["fleet"] != "4" || num(t, rows[0], "rate/s") != 600 {
		t.Fatalf("row identity wrong: %v", rows)
	}
	one, four := rows[0], rows[1]
	if num(t, four, "p99 (s)") >= num(t, one, "p99 (s)") {
		t.Errorf("4 instances did not beat 1 at p99: %v", rows)
	}
	if num(t, four, "throughput/s") <= num(t, one, "throughput/s") {
		t.Errorf("4 instances did not raise drain throughput: %v", rows)
	}
}

// TestMTTFSweep pins the reliability sweep: rows in (design, MTTF) input
// order, each design's MTTF-0 row its own baseline (goodput ratio exactly
// 1), and a finite MTTF crashes members and keeps at most that goodput.
func TestMTTFSweep(t *testing.T) {
	rows := sweep(t, "-mttf-sweep", "0,30", "-designs", "LoCaLUT,OP+LC", "-model", "bert-base",
		"-instances", "4", "-rate", "30", "-duration", "60s", "-deadline", "5", "-mttr", "2")
	var order []string
	for _, r := range rows {
		order = append(order, r["design"]+"@"+r["mttf (s)"])
	}
	if want := []string{"LoCaLUT@0", "LoCaLUT@30.000", "OP+LC@0", "OP+LC@30.000"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("rows %v, want %v", order, want)
	}
	for i := 0; i < len(rows); i += 2 {
		base, faulted := rows[i], rows[i+1]
		if base["goodput ratio"] != "1.000" || base["crashes"] != "0" {
			t.Errorf("baseline row %v: want ratio 1 and no crashes", base)
		}
		if num(t, faulted, "crashes") == 0 || num(t, faulted, "goodput ratio") > 1 {
			t.Errorf("faulted row %v: want crashes and ratio <= 1", faulted)
		}
	}
}

// TestHedgeSweepTailTradeoff pins the -hedge-sweep's purpose: against the
// delay-0 baseline, a well-chosen delay cuts TTFT p99 while wasting under
// 10% of fleet busy time, on one straggler schedule shared by every point.
func TestHedgeSweepTailTradeoff(t *testing.T) {
	rows := sweep(t, "-hedge-sweep", "0,0.2", "-model", "opt-125m", "-out-tokens", "4", "-replicas", "2",
		"-instances", "8", "-rate", "30", "-duration", "60s", "-deadline", "8", "-audit")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	base, hedged := rows[0], rows[1]
	if base["hedge delay (s)"] != "0" || base["ttft ratio"] != "1.000" || base["hedges"] != "0" {
		t.Errorf("baseline row %v: want delay 0, ratio 1, no hedges", base)
	}
	if base["straggler windows"] == "0" || hedged["straggler windows"] != base["straggler windows"] {
		t.Errorf("straggler schedule not shared: %s vs %s windows", base["straggler windows"], hedged["straggler windows"])
	}
	if num(t, hedged, "hedges") == 0 || num(t, hedged, "wins") == 0 {
		t.Errorf("hedged row issued no hedges or won none: %v", hedged)
	}
	if num(t, hedged, "ttft p99 (s)") >= num(t, base, "ttft p99 (s)") {
		t.Errorf("hedging did not improve TTFT p99: %v", rows)
	}
	if f := num(t, hedged, "waste frac"); f <= 0 || f >= 0.10 {
		t.Errorf("waste fraction %g outside (0, 0.10)", f)
	}
}

// TestSweepsDeterministic: every sweep is byte-identical across runs and
// -j levels.
func TestSweepsDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "100,400", "-fleets", "1,2", "-duration", "5s", "-designs", "LoCaLUT,OP+LC"},
		{"-mttf-sweep", "0,20", "-instances", "2", "-rate", "20", "-duration", "30s", "-deadline", "5"},
		{"-hedge-sweep", "0,0.3", "-model", "opt-125m", "-out-tokens", "4", "-instances", "4", "-rate", "20", "-duration", "30s"},
	} {
		a, errA := execute(append(args, "-j", "1")...)
		b, errB := execute(append(args, "-j", "4")...)
		if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%v differs across -j 1 and -j 4 (%v, %v)\n%s\n%s", args, errA, errB, a, b)
		}
	}
}

// cells renders values the way a table cell does.
func cells(vals ...interface{}) []string {
	t := trace.NewTable("", make([]string, len(vals))...)
	t.Add(vals...)
	return t.Rows[0]
}

// TestSweepPointIsSingleRun: a sweep row is the single run its flags
// describe, with the swept value given by its own flag. Each case sets a
// flag the sweeps once dropped: -designs and -autoscale for -sweep,
// -classes for -mttf-sweep and -mttf for -hedge-sweep, whose straggler
// defaults are spelled out because a single run has none.
func TestSweepPointIsSingleRun(t *testing.T) {
	single := func(args ...string) *localut.ClusterReport {
		t.Helper()
		out, err := execute(append(args, "-json")...)
		if err != nil {
			t.Fatal(err)
		}
		var rep localut.ClusterReport
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}
	t.Run("sweep", func(t *testing.T) {
		flags := []string{"-model", "bert-base", "-duration", "30s", "-designs", "LoCaLUT,OP+LC",
			"-autoscale", "-slo", "0.5", "-max-instances", "4", "-interval", "1s"}
		row := sweep(t, append(flags, "-sweep", "400", "-fleets", "2")...)[0]
		rep := single(append(flags, "-rate", "400", "-instances", "2")...)
		got := []string{row["throughput/s"], row["p99 (s)"], row["energy/req (J)"], row["peak"], row["requests"]}
		if want := cells(rep.ThroughputPerSec, rep.Latency.P99, rep.EnergyPerRequestJ, rep.InstancesPeak, rep.Admitted); !reflect.DeepEqual(got, want) {
			t.Errorf("sweep row %v, single run %v", got, want)
		}
	})
	t.Run("mttf-sweep", func(t *testing.T) {
		flags := []string{"-model", "bert-base", "-instances", "4", "-duration", "30s", "-deadline", "5",
			"-classes", "hot:40,cool:10", "-mttr", "2"}
		row := sweep(t, append(flags, "-mttf-sweep", "20", "-designs", "OP+LC")...)[0]
		rep := single(append(flags, "-mttf", "20", "-design", "OP+LC")...)
		got := []string{row["throughput/s"], row["goodput/s"], row["crashes"], row["retries"], row["p99 (s)"]}
		if want := cells(rep.ThroughputPerSec, rep.GoodputPerSec, rep.Crashes, rep.Retries, rep.Latency.P99); !reflect.DeepEqual(got, want) {
			t.Errorf("sweep row %v, single run %v", got, want)
		}
	})
	t.Run("hedge-sweep", func(t *testing.T) {
		flags := []string{"-model", "opt-125m", "-out-tokens", "4", "-replicas", "2", "-instances", "8",
			"-rate", "30", "-duration", "30s", "-mttf", "20", "-mttr", "2",
			"-straggler-mtbf", "80", "-straggler-duration", "5", "-straggler-slowdown", "4"}
		row := sweep(t, append(flags, "-hedge-sweep", "0.2")...)[0]
		rep := single(append(flags, "-hedge-delay", "0.2")...)
		got := []string{row["ttft p99 (s)"], row["p99 (s)"], row["goodput/s"], row["hedges"], row["wins"]}
		if want := cells(rep.TTFT.P99, rep.Latency.P99, rep.GoodputPerSec, rep.HedgesIssued, rep.HedgeWins); !reflect.DeepEqual(got, want) {
			t.Errorf("sweep row %v, single run %v", got, want)
		}
	})
}

// TestDroppedFlagsRefused: a flag the selected mode would drop is an error
// naming it, and nothing is written.
func TestDroppedFlagsRefused(t *testing.T) {
	dir := t.TempDir()
	traceOut, metricsOut := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.csv")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-fleets", []string{"-fleets", "2,4"}},
		{"-fleets", []string{"-mttf-sweep", "0,30", "-fleets", "2,4"}},
		{"-trace-out", []string{"-sweep", "10", "-trace-out", traceOut}},
		{"-metrics-out", []string{"-sweep", "10", "-metrics-out", metricsOut}},
		{"-trace-out", []string{"-mttf-sweep", "0", "-trace-out", traceOut}},
		{"-metrics-out", []string{"-mttf-sweep", "0", "-metrics-out", metricsOut}},
		{"-trace-out", []string{"-hedge-sweep", "0", "-trace-out", traceOut}},
		{"-metrics-out", []string{"-hedge-sweep", "0", "-metrics-out", metricsOut}},
		{"-trace-out", []string{"-chaos", "1", "-trace-out", traceOut}},
		{"-metrics-out", []string{"-chaos", "1", "-metrics-out", metricsOut}},
		{"-model", []string{"-chaos", "1", "-model", "opt-125m"}},
		{"-rate", []string{"-sweep", "10", "-rate", "5"}},
		{"-classes", []string{"-sweep", "10", "-classes", "a:5"}},
		{"-instances", []string{"-sweep", "10", "-fleets", "2", "-instances", "3"}},
		{"-mttf", []string{"-mttf-sweep", "0", "-mttf", "5"}},
		{"-hedge-delay", []string{"-hedge-sweep", "0", "-hedge-delay", "0.5"}},
		{"-sweep", []string{"-hedge-sweep", "0", "-sweep", "10"}},
		{"-json", []string{"-sweep", "10", "-json"}},
		{"-timeline", []string{"-mttf-sweep", "0", "-timeline"}},
	} {
		out, err := execute(tc.args...)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") || len(out) > 0 {
			t.Errorf("%v: got %v and %d bytes, want an error naming %s", tc.args, err, len(out), tc.flag)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		t.Errorf("a refused run wrote %d files", len(files))
	}
}
