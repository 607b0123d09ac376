package cluster

import (
	"encoding/json"
	"testing"

	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
)

// testConfig is a small, fast cluster run: two LoCaLUT appliances behind a
// round-robin router with open admission.
func testConfig() Config {
	return Config{
		Base: serve.Config{
			Model:   dnn.BERTBase(),
			Fmt:     quant.W1A3,
			Variant: kernels.LoCaLUT,
		},
		Instances:       2,
		RatePerSec:      100,
		DurationSeconds: 5,
		Seed:            1,
		Audit:           true,
	}
}

func TestClusterBasics(t *testing.T) {
	rep, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 {
		t.Fatal("no requests arrived")
	}
	if rep.Rejected != 0 {
		t.Errorf("admit-all rejected %d requests", rep.Rejected)
	}
	if rep.Completed != rep.Admitted {
		t.Errorf("completed %d of %d admitted requests (the fleet must drain)", rep.Completed, rep.Admitted)
	}
	if len(rep.Instances) != 2 {
		t.Fatalf("got %d instance reports, want 2", len(rep.Instances))
	}
	for _, ir := range rep.Instances {
		if ir.Requests == 0 {
			t.Errorf("instance %d received no traffic under round-robin", ir.ID)
		}
		if ir.Completed != ir.Requests {
			t.Errorf("instance %d completed %d of %d", ir.ID, ir.Completed, ir.Requests)
		}
		if ir.Utilization <= 0 || ir.Utilization > 1 {
			t.Errorf("instance %d utilization %g outside (0, 1]", ir.ID, ir.Utilization)
		}
		if ir.Design != "LoCaLUT" {
			t.Errorf("instance %d design %q", ir.ID, ir.Design)
		}
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Name != "default" {
		t.Fatalf("class reports %+v", rep.Classes)
	}
	if got := rep.Classes[0].Completed; got != rep.Completed {
		t.Errorf("class completed %d, cluster %d", got, rep.Completed)
	}
	if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Errorf("suspicious latency stats %+v", rep.Latency)
	}
	if rep.EnergyJ <= 0 || rep.EnergyPerRequestJ <= 0 {
		t.Errorf("energy not priced: %g total, %g per request", rep.EnergyJ, rep.EnergyPerRequestJ)
	}
	if rep.DistinctForwardSims == 0 {
		t.Error("oracle priced nothing")
	}
	if rep.InstancesPeak != 2 || rep.InstancesFinal != 2 {
		t.Errorf("static fleet reported peak=%d final=%d", rep.InstancesPeak, rep.InstancesFinal)
	}
}

// TestClusterSharedOracle pins the fleet-scale memoization: identical
// appliances share one pricing oracle, so the distinct-simulation count
// does not grow with the fleet size.
func TestClusterSharedOracle(t *testing.T) {
	small := testConfig()
	big := testConfig()
	big.Instances = 8
	repS, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	// Same traffic spread over more instances can only shrink the set of
	// distinct batch shapes, never multiply it by the fleet size.
	if repB.DistinctForwardSims > 2*repS.DistinctForwardSims {
		t.Errorf("distinct sims grew with fleet size: %d @2 vs %d @8",
			repS.DistinctForwardSims, repB.DistinctForwardSims)
	}
}

// clusterJSON runs a config and returns the marshaled report.
func clusterJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scaledConfig is the autoscaler scenario: a deliberately under-provisioned
// single instance facing decode traffic, with headroom to grow.
func scaledConfig() Config {
	cfg := testConfig()
	cfg.Base.Model = dnn.OPT125M()
	cfg.Base.OutTokens = 4
	cfg.Instances = 1
	// One instance sustains ~29 req/s on this workload: 50/s overloads it
	// until the autoscaler grows the fleet, after which per-instance load
	// sits comfortably inside the SLO.
	cfg.RatePerSec = 50
	cfg.DurationSeconds = 15
	cfg.Autoscaler = AutoscalerConfig{
		Enabled:         true,
		MaxInstances:    4,
		IntervalSeconds: 1,
		SLOSeconds:      1.0,
		// Conservative drain threshold: hold the scaled fleet while
		// arrivals continue instead of oscillating back down.
		ScaleDownFactor: 0.1,
		WarmupSeconds:   0.5,
		DrainSeconds:    0.5,
	}
	return cfg
}

// TestClusterDeterministic pins the headline invariant: same seed + config
// => byte-identical ClusterReport JSON, run to run and at every engine
// parallelism level — including mid-run scale-up/scale-down, heterogeneous
// designs and token-bucket admission.
func TestClusterDeterministic(t *testing.T) {
	scenarios := map[string]func() Config{
		"static": testConfig,
		"scaled": scaledConfig,
		"mixed": func() Config {
			cfg := testConfig()
			cfg.Designs = []kernels.Variant{kernels.LoCaLUT, kernels.OPLC}
			cfg.Router = LeastOutstanding
			cfg.Admission = TokenBucket
			cfg.Classes = []ClassConfig{
				{Name: "interactive", RatePerSec: 60, AdmitRatePerSec: 40},
				{Name: "batch", RatePerSec: 30},
			}
			return cfg
		},
	}
	for name, mk := range scenarios {
		t.Run(name, func(t *testing.T) {
			base := clusterJSON(t, mk())
			if again := clusterJSON(t, mk()); string(again) != string(base) {
				t.Fatal("same seed diverged run to run")
			}
			for _, par := range []int{1, 4, 8} {
				cfg := mk()
				cfg.Base.Engine = gemm.NewEngine()
				cfg.Base.Engine.Exec.Parallelism = par
				if got := clusterJSON(t, cfg); string(got) != string(base) {
					t.Fatalf("parallelism %d changed the report", par)
				}
			}
		})
	}
}

// TestClusterAutoscaler pins the acceptance scenario: the fleet grows under
// load, then drains back to its minimum once arrivals stop, and the late
// ticks observe a p99 back under the SLO.
func TestClusterAutoscaler(t *testing.T) {
	rep, err := Run(scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.InstancesPeak <= 1 {
		t.Fatalf("autoscaler never scaled up (peak %d)", rep.InstancesPeak)
	}
	if rep.InstancesFinal != 1 {
		t.Errorf("fleet did not drain back to minimum: %d active at end", rep.InstancesFinal)
	}
	if rep.Completed != rep.Admitted {
		t.Errorf("completed %d of %d admitted (draining instances must finish their work)",
			rep.Completed, rep.Admitted)
	}
	var ups, downs, lastTickP99 float64
	var sawTick bool
	for _, ev := range rep.Timeline {
		if ev.Kind != KindScale {
			continue
		}
		switch ev.Action {
		case "up-active":
			ups++
		case "down":
			downs++
		case "tick":
			sawTick = true
			if ev.Samples > 0 {
				lastTickP99 = ev.P99
			}
		}
	}
	if !sawTick || ups == 0 || downs == 0 {
		t.Fatalf("timeline missing phases (ticks=%v ups=%g downs=%g): %+v", sawTick, ups, downs, rep.Timeline)
	}
	if ups != downs {
		t.Errorf("%g scale-ups but %g retirements (every extra instance must drain)", ups, downs)
	}
	slo := scaledConfig().Autoscaler.SLOSeconds
	if lastTickP99 > slo {
		t.Errorf("final observed p99 %gs still above the %gs SLO after scaling", lastTickP99, slo)
	}
	// Retired instances must have a consistent lifecycle.
	for _, ir := range rep.Instances {
		if ir.DownSeconds > 0 && !(ir.UpSeconds <= ir.ActiveSeconds && ir.ActiveSeconds <= ir.DrainSeconds && ir.DrainSeconds < ir.DownSeconds) {
			t.Errorf("instance %d lifecycle out of order: %+v", ir.ID, ir)
		}
	}
}

// TestClusterTokenBucket pins per-class admission: a class offered far
// above its sustained budget sees rejections close to the excess, while a
// within-budget class sees none.
func TestClusterTokenBucket(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = TokenBucket
	cfg.DurationSeconds = 10
	cfg.Classes = []ClassConfig{
		{Name: "hot", RatePerSec: 100, AdmitRatePerSec: 40, AdmitBurst: 1},
		{Name: "cool", RatePerSec: 20},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot, cool := rep.Classes[0], rep.Classes[1]
	if cool.Rejected != 0 {
		t.Errorf("within-budget class rejected %d requests", cool.Rejected)
	}
	if hot.Rejected == 0 {
		t.Fatal("over-budget class saw no rejections")
	}
	// ~100/s offered against a 40/s budget: roughly 60% rejected.
	frac := float64(hot.Rejected) / float64(hot.Offered)
	if frac < 0.4 || frac > 0.75 {
		t.Errorf("hot-class rejection fraction %g implausible for 100/s offered vs 40/s budget", frac)
	}
	if rep.Rejected != hot.Rejected+cool.Rejected {
		t.Errorf("cluster rejected %d != class sum %d", rep.Rejected, hot.Rejected+cool.Rejected)
	}
	if rep.Completed != rep.Admitted {
		t.Errorf("completed %d of %d admitted", rep.Completed, rep.Admitted)
	}
}

// TestClusterRouters exercises each routing policy's characteristic
// behavior on the same traffic.
func TestClusterRouters(t *testing.T) {
	t.Run("round-robin-balance", func(t *testing.T) {
		cfg := testConfig()
		cfg.Instances = 4
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := rep.Admitted / 4
		for _, ir := range rep.Instances {
			if ir.Requests < want-1 || ir.Requests > want+1 {
				t.Errorf("instance %d got %d requests, want ~%d", ir.ID, ir.Requests, want)
			}
		}
	})
	t.Run("shape-affinity-partitions", func(t *testing.T) {
		// All requests share one padded shape, so shape-affinity routing
		// must send every request to a single instance.
		cfg := testConfig()
		cfg.Router = ShapeAffinity
		cfg.Instances = 3
		cfg.RatePerSec = 30
		cfg.Classes = []ClassConfig{{Name: "uniform", RatePerSec: 30,
			MinTokens: 60, MaxTokens: 64, MeanTokens: 62}}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nonEmpty := 0
		for _, ir := range rep.Instances {
			if ir.Requests > 0 {
				nonEmpty++
			}
		}
		if nonEmpty != 1 {
			t.Errorf("uniform-shape traffic spread over %d instances, want 1", nonEmpty)
		}
	})
	t.Run("least-outstanding-runs", func(t *testing.T) {
		cfg := testConfig()
		cfg.Router = LeastOutstanding
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != rep.Admitted {
			t.Errorf("completed %d of %d", rep.Completed, rep.Admitted)
		}
	})
	t.Run("weighted-kv-runs", func(t *testing.T) {
		cfg := testConfig()
		cfg.Base.Model = dnn.OPT125M()
		cfg.Base.OutTokens = 4
		cfg.Router = WeightedFreeKV
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != rep.Admitted {
			t.Errorf("completed %d of %d", rep.Completed, rep.Admitted)
		}
		if rep.KVPeakBytes == 0 {
			t.Error("decode traffic left no KV footprint")
		}
	})
}

// TestClusterHeterogeneous pins the design cycling: with two designs over
// three instances, IDs 0 and 2 share a design and an oracle while ID 1
// differs.
func TestClusterHeterogeneous(t *testing.T) {
	cfg := testConfig()
	cfg.Instances = 3
	cfg.Designs = []kernels.Variant{kernels.LoCaLUT, kernels.Naive}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"LoCaLUT", "NaivePIM", "LoCaLUT"}
	for i, ir := range rep.Instances {
		if ir.Design != want[i] {
			t.Errorf("instance %d design %q, want %q", i, ir.Design, want[i])
		}
	}
	if rep.Completed != rep.Admitted {
		t.Errorf("completed %d of %d", rep.Completed, rep.Admitted)
	}
}

// TestClusterValidation covers the config error paths.
func TestClusterValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"no traffic":     func(c *Config) { c.RatePerSec = 0 },
		"negative rate":  func(c *Config) { c.Classes = []ClassConfig{{RatePerSec: -1}} },
		"negative fleet": func(c *Config) { c.Instances = -2 },
		"bad duration":   func(c *Config) { c.DurationSeconds = -1 },
		"scaler no slo":  func(c *Config) { c.Autoscaler = AutoscalerConfig{Enabled: true} },
		"scaler bounds":  func(c *Config) { c.Autoscaler = AutoscalerConfig{Enabled: true, SLOSeconds: 1, MinInstances: 3} },
		"decode non-dec": func(c *Config) { c.Classes = []ClassConfig{{RatePerSec: 1, OutTokens: 4}} },
		"negative slo":   func(c *Config) { c.Classes = []ClassConfig{{RatePerSec: 1, TTFTp99SLO: -1}} },
		"negative admit": func(c *Config) { c.Classes = []ClassConfig{{RatePerSec: 1, AdmitRatePerSec: -2}} },
		"bad out mean": func(c *Config) {
			c.Base.Model = dnn.OPT125M()
			c.Classes = []ClassConfig{{RatePerSec: 1, OutTokensMean: 0.5}}
		},
		"unknown router":   func(c *Config) { c.Router = RouterPolicy(99) },
		"unknown admitter": func(c *Config) { c.Admission = AdmissionPolicy(99) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s: no error", name)
			}
		})
	}
}

// TestParseNames covers the policy name round-trips and error paths.
func TestParseNames(t *testing.T) {
	for i := 0; i < len(routerNames); i++ {
		p, err := ParseRouterPolicy(routerNames[i])
		if err != nil || p != RouterPolicy(i) {
			t.Errorf("router %q: %v, %v", routerNames[i], p, err)
		}
	}
	for i := 0; i < len(admissionNames); i++ {
		p, err := ParseAdmissionPolicy(admissionNames[i])
		if err != nil || p != AdmissionPolicy(i) {
			t.Errorf("admission %q: %v, %v", admissionNames[i], p, err)
		}
	}
	if _, err := ParseRouterPolicy("nope"); err == nil {
		t.Error("unknown router name accepted")
	}
	if _, err := ParseAdmissionPolicy(""); err == nil {
		t.Error("empty admission name accepted")
	}
	if got := RouterPolicy(42).String(); got != "RouterPolicy(42)" {
		t.Errorf("out-of-range router String() = %q", got)
	}
	if got := AdmissionPolicy(42).String(); got != "AdmissionPolicy(42)" {
		t.Errorf("out-of-range admission String() = %q", got)
	}
}

// TestBucket pins token-bucket refill behavior directly.
func TestBucket(t *testing.T) {
	b := newBucket(2, 3) // 2 tokens/s, depth 3, starts full
	for i := 0; i < 3; i++ {
		if !b.admit(0) {
			t.Fatalf("burst admission %d failed", i)
		}
	}
	if b.admit(0) {
		t.Fatal("admitted past the burst depth")
	}
	if b.admit(0.4) {
		t.Fatal("admitted before a full token refilled")
	}
	if !b.admit(1.0) {
		// 0.6s more elapsed: 1.2 tokens in (capped at what accumulated),
		// enough for one admission.
		t.Fatal("refill did not restore admission")
	}
}

// TestOneMemberFleetMatchesServeRun pins the equivalence a single event
// loop would rely on: a one-member, admit-all, round-robin fleet fed the
// appliance's config, rate, window and seed is the same simulation as
// serve.Run, down to the shed count, the latency populations, the energy
// bill and the KV gauge. The KV-budget cases run on four ranks with 95 %
// of each bank given to LUTs, so a 1k-token prompt fills a replica.
func TestOneMemberFleetMatchesServeRun(t *testing.T) {
	opt, bert := dnn.OPT125M(), dnn.BERTBase()
	for _, tc := range []struct {
		name     string
		c        serve.Config
		kvBudget bool
	}{
		{"opt-sampled-fcfs", serve.Config{Model: opt, Fmt: quant.W1A3, Variant: kernels.LoCaLUT, Scheduler: serve.FCFS, OutTokensMean: 16, RatePerSec: 40}, false},
		{"bert-packed-queue8", serve.Config{Model: bert, Fmt: quant.W1A3, Variant: kernels.LoCaLUT, Scheduler: serve.Packed, MaxQueue: 8, RatePerSec: 400}, false},
		{"opt-kv-shed", serve.Config{Model: opt, Fmt: quant.W1A3, Variant: kernels.LoCaLUT, OutTokens: 64, MaxTokens: 2048, MeanTokens: 1024, KVPolicy: serve.KVShed, RatePerSec: 30}, true},
		{"opt-w2a2-op-stall", serve.Config{Model: opt, Fmt: quant.W2A2, Variant: kernels.OP, Replicas: 2, OutTokens: 32, MaxTokens: 2048, MeanTokens: 1024, KVPolicy: serve.KVStall, RatePerSec: 20}, true},
		{"vit-w4a4-ltc", serve.Config{Model: dnn.ViTBase(), Fmt: quant.W4A4, Variant: kernels.LTC, RatePerSec: 20}, false},
		{"bert-w1a4-naive", serve.Config{Model: bert, Fmt: quant.W1A4, Variant: kernels.Naive, RatePerSec: 10}, false},
	} {
		c := tc.c
		c.DurationSeconds, c.Seed = 10, 3
		engine := func() *gemm.Engine {
			if !tc.kvBudget {
				return nil
			}
			e := gemm.NewEngine()
			e.Cfg.Ranks, e.Cfg.LUTBudgetFrac = 4, 0.95
			return e
		}
		c.Engine = engine()
		want, err := serve.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c.Engine = engine()
		rep, err := Run(Config{Base: c, Instances: 1, RatePerSec: c.RatePerSec, DurationSeconds: c.DurationSeconds, Seed: c.Seed})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := rep.Instances[0]
		for _, f := range []struct {
			field     string
			got, want interface{}
		}{
			{"requests", rep.Admitted, want.Requests}, {"completed", rep.Completed, want.Completed}, {"shed", rep.Shed, want.Shed},
			{"queue", rep.Queue, want.Queue}, {"service", rep.Service, want.Service}, {"latency", rep.Latency, want.Latency},
			{"ttft", rep.TTFT, want.TTFT}, {"tpot", rep.TPOT, want.TPOT},
			{"makespan", rep.MakespanSeconds, want.MakespanSeconds},
			{"energy", rep.EnergyJ, want.EnergyJ}, {"energy/request", rep.EnergyPerRequestJ, want.EnergyPerRequestJ},
			{"tokens in", rep.TokensIn, want.TokensIn}, {"tokens padded", rep.TokensPadded, want.TokensPadded},
			{"tokens out", rep.TokensOut, want.TokensOut},
			{"kv peak", rep.KVPeakBytes, want.KVPeakBytes}, {"kv capacity", rep.KVCapacityBytes, want.KVCapacityBytes},
			{"kv mean", rep.KVMeanBytes, want.KVMeanBytes}, {"kv mean utilization", rep.KVMeanUtilization, want.KVMeanUtilization},
			{"distinct sims", rep.DistinctForwardSims, want.DistinctForwardSims},
			{"offered/s", rep.OfferedPerSec, want.OfferedPerSec}, {"throughput/s", rep.ThroughputPerSec, want.ThroughputPerSec},
			{"batches", m.Batches, want.Batches}, {"decode steps", m.DecodeSteps, want.DecodeSteps},
			{"mean batch size", m.MeanBatchSize, want.MeanBatchSize}, {"utilization", m.Utilization, want.RankUtilization},
			{"pim share", m.PIMShare, want.PIMUtilization},
		} {
			if f.got != f.want {
				t.Errorf("%s: %s %v, serve.Run %v", tc.name, f.field, f.got, f.want)
			}
		}
		if (c.MaxQueue > 0 || c.KVPolicy == serve.KVShed) && want.Shed == 0 {
			t.Errorf("%s: no request shed, so the case pins no shed path", tc.name)
		}
	}
}
