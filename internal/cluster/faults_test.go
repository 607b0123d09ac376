package cluster

import (
	"math"
	"testing"

	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
)

// faultConfig is the fault-injection acceptance scenario: an 8-instance
// fleet with enough headroom that rerouting absorbs two crashes, 5s
// deadlines, and an MTTF dialed so the seeded streams land two crashes
// inside the 60s window.
func faultConfig() Config {
	return Config{
		Base: serve.Config{
			Model:    dnn.BERTBase(),
			Fmt:      quant.W1A3,
			Variant:  kernels.LoCaLUT,
			Replicas: 2,
		},
		Instances:       8,
		RatePerSec:      30,
		DurationSeconds: 60,
		Seed:            1,
		Audit:           true,
		DeadlineSeconds: 5,
		Faults: FaultConfig{
			Enabled:     true,
			MTTFSeconds: 60,
			MTTRSeconds: 2,
		},
	}
}

// TestClusterFaultDemo pins the headline robustness scenario: the fleet
// takes multiple mid-run crashes, pays a visible recovery tax (retries,
// re-prefilled tokens, outage time), and still delivers goodput within
// 5% of the fault-free run.
func TestClusterFaultDemo(t *testing.T) {
	rep, err := Run(faultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes < 2 {
		t.Fatalf("want at least 2 crashes in the window, got %d", rep.Crashes)
	}
	if rep.Retries == 0 || rep.ReprefillTokens == 0 {
		t.Errorf("crashes destroyed no in-flight work (retries=%d reprefill=%d); the scenario must exercise the retry path",
			rep.Retries, rep.ReprefillTokens)
	}
	if rep.UnavailableSeconds <= 0 {
		t.Error("crashes produced no unavailability window")
	}
	if rep.LUTRematSeconds <= 0 {
		t.Error("recovery did not price LUT re-materialization")
	}
	if rep.InstancesFinal != 8 {
		t.Errorf("fleet did not fully recover: %d of 8 active at end", rep.InstancesFinal)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Errorf("accounting leak: admitted %d != completed %d + shed %d",
			rep.Admitted, rep.Completed, rep.Shed)
	}
	if rep.Good == 0 || rep.Good > rep.Completed {
		t.Errorf("good %d outside (0, completed %d]", rep.Good, rep.Completed)
	}

	// The unavailability total must be exactly the sum of the outages the
	// repair events closed.
	var crashEvents, repairEvents int
	var recSum float64
	for _, ev := range rep.Timeline {
		if ev.Kind != KindFault {
			continue
		}
		switch ev.Action {
		case "crash":
			crashEvents++
		case "repair":
			repairEvents++
			recSum += ev.RecoverSeconds
		}
	}
	if crashEvents != rep.Crashes || repairEvents != rep.Crashes {
		t.Errorf("timeline has %d crashes / %d repairs, counters say %d",
			crashEvents, repairEvents, rep.Crashes)
	}
	if math.Abs(recSum-rep.UnavailableSeconds) > 1e-9 {
		t.Errorf("unavailability %g != timeline recover sum %g", rep.UnavailableSeconds, recSum)
	}

	// Goodput within 5% of the fault-free twin: the fleet has headroom, so
	// rerouting and retries absorb the crashes.
	clean := faultConfig()
	clean.Faults = FaultConfig{}
	cleanRep, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	cleanFaults := 0
	for _, ev := range cleanRep.Timeline {
		if ev.Kind == KindFault {
			cleanFaults++
		}
	}
	if cleanRep.Crashes != 0 || cleanFaults != 0 {
		t.Fatalf("fault-free twin reported faults: %+v", cleanRep.Timeline)
	}
	if rep.GoodputPerSec < 0.95*cleanRep.GoodputPerSec {
		t.Errorf("goodput %g dropped more than 5%% below fault-free %g",
			rep.GoodputPerSec, cleanRep.GoodputPerSec)
	}
}

// TestClusterFaultDeterministic extends the determinism invariant to the
// fault layer: byte-identical reports run to run and at every engine
// parallelism level, with mid-run crashes, degraded-mode replica losses
// and retries in play.
func TestClusterFaultDeterministic(t *testing.T) {
	scenarios := map[string]func() Config{
		"crashes": faultConfig,
		"degraded": func() Config {
			cfg := faultConfig()
			cfg.Faults.DegradedFraction = 0.5
			return cfg
		},
		"kv-shed-bounded": func() Config {
			cfg := faultConfig()
			cfg.Base.MaxQueue = 64
			cfg.Base.KVPolicy = serve.KVShed
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

// TestClusterRouterChurnDeterministic pins router determinism under
// membership churn: every routing policy must produce byte-identical
// reports at every parallelism level while instances crash out of the
// routable set and return mid-run.
func TestClusterRouterChurnDeterministic(t *testing.T) {
	for _, rt := range []RouterPolicy{RoundRobin, LeastOutstanding, WeightedFreeKV, ShapeAffinity} {
		t.Run(rt.String(), func(t *testing.T) {
			mk := func() Config {
				cfg := faultConfig()
				cfg.Router = rt
				cfg.Faults.MTTFSeconds = 40 // more churn
				return cfg
			}
			rep, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashes == 0 {
				t.Fatalf("scenario produced no churn under %s", rt)
			}
			base := clusterJSON(t, mk())
			for _, par := range []int{1, 4, 8} {
				cfg := mk()
				cfg.Base.Engine = gemm.NewEngine()
				cfg.Base.Engine.Exec.Parallelism = par
				if got := clusterJSON(t, cfg); string(got) != string(base) {
					t.Fatalf("parallelism %d changed the report under %s churn", par, rt)
				}
			}
		})
	}
}

// TestClusterDegradedMode pins the replica-loss path: with every fault
// drawn as a degrade, the fleet loses replicas (not instances), keeps
// serving, and repairs them.
func TestClusterDegradedMode(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults.DegradedFraction = 1
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedEvents == 0 {
		t.Fatal("no degraded-mode faults landed")
	}
	var degrades, repairs int
	for _, ev := range rep.Timeline {
		if ev.Kind != KindFault {
			continue
		}
		switch ev.Action {
		case "degrade":
			degrades++
			if ev.Replica < 0 {
				t.Errorf("degrade event without a replica index: %+v", ev)
			}
		case "replica-repair":
			repairs++
		}
	}
	if degrades != rep.DegradedEvents {
		t.Errorf("timeline degrades %d != counter %d", degrades, rep.DegradedEvents)
	}
	if repairs == 0 {
		t.Error("no replica repairs landed")
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Errorf("accounting leak: admitted %d != completed %d + shed %d",
			rep.Admitted, rep.Completed, rep.Shed)
	}
	// Degraded instances keep serving: per-instance degraded counters sum
	// to the cluster total.
	sum := 0
	for _, ir := range rep.Instances {
		sum += ir.Degraded
	}
	if sum != rep.DegradedEvents {
		t.Errorf("instance degraded sum %d != cluster %d", sum, rep.DegradedEvents)
	}
}

// TestClusterBoundedQueueSheds pins graceful degradation under pressure:
// an overloaded bounded-queue fleet sheds instead of queueing without
// limit, and the accounting stays closed.
func TestClusterBoundedQueueSheds(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = FaultConfig{}
	cfg.RatePerSec = 400 // ~10x the fleet's service capacity
	cfg.DurationSeconds = 10
	cfg.Base.MaxQueue = 4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShedQueueFull == 0 {
		t.Fatal("overloaded bounded queues shed nothing")
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Errorf("accounting leak: admitted %d != completed %d + shed %d",
			rep.Admitted, rep.Completed, rep.Shed)
	}
	if rep.GoodputPerSec > rep.ThroughputPerSec {
		t.Errorf("goodput %g above throughput %g", rep.GoodputPerSec, rep.ThroughputPerSec)
	}
}

// TestClassConfigValidation covers the per-class validation table.
func TestClassConfigValidation(t *testing.T) {
	cases := map[string]ClassConfig{
		"zero rate":         {},
		"negative rate":     {RatePerSec: -5},
		"negative lengths":  {RatePerSec: 1, MinTokens: -1},
		"inverted lengths":  {RatePerSec: 1, MinTokens: 100, MaxTokens: 50},
		"negative decode":   {RatePerSec: 1, OutTokens: -1},
		"negative admit":    {RatePerSec: 1, AdmitBurst: -1},
		"negative slo":      {RatePerSec: 1, LatencyP99SLO: -0.5},
		"negative deadline": {RatePerSec: 1, DeadlineSeconds: -1},
	}
	for name, cc := range cases {
		t.Run(name, func(t *testing.T) {
			if err := cc.validate(0); err == nil {
				t.Errorf("%s: no error", name)
			}
		})
	}
	ok := ClassConfig{Name: "fine", RatePerSec: 10, MinTokens: 16, MaxTokens: 64,
		DeadlineSeconds: 2, LatencyP99SLO: 1}
	if err := ok.validate(0); err != nil {
		t.Errorf("valid class rejected: %v", err)
	}
}

// TestFaultValidation covers the fault, retry and deadline config error
// paths through Run.
func TestFaultValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"faults no mttf":    func(c *Config) { c.Faults = FaultConfig{Enabled: true} },
		"negative mttr":     func(c *Config) { c.Faults = FaultConfig{Enabled: true, MTTFSeconds: 10, MTTRSeconds: -1} },
		"degraded frac":     func(c *Config) { c.Faults = FaultConfig{Enabled: true, MTTFSeconds: 10, DegradedFraction: 2} },
		"remat bw":          func(c *Config) { c.Faults = FaultConfig{Enabled: true, MTTFSeconds: 10, LUTRematGBps: -1} },
		"retry attempts":    func(c *Config) { c.Retry.MaxAttempts = -1 },
		"retry backoff":     func(c *Config) { c.Retry.BackoffSeconds = -0.1 },
		"retry cap":         func(c *Config) { c.Retry = RetryConfig{BackoffSeconds: 2, BackoffCapSeconds: 1} },
		"negative deadline": func(c *Config) { c.DeadlineSeconds = -1 },
		"class deadline":    func(c *Config) { c.Classes = []ClassConfig{{RatePerSec: 1, DeadlineSeconds: -1}} },
		"negative queue":    func(c *Config) { c.Base.MaxQueue = -1 },
		"bad kv policy":     func(c *Config) { c.Base.KVPolicy = serve.KVPolicy(9) },
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

// TestRetryBackoff pins the capped exponential schedule.
func TestRetryBackoff(t *testing.T) {
	r := RetryConfig{MaxAttempts: 5, BackoffSeconds: 0.1, BackoffCapSeconds: 0.5}
	want := []float64{0.1, 0.1, 0.2, 0.4, 0.5, 0.5}
	for attempt, w := range want {
		if got := r.backoff(attempt); math.Abs(got-w) > 1e-12 {
			t.Errorf("backoff(%d) = %g, want %g", attempt, got, w)
		}
	}
}

// TestStalePrefillNeverReadsNewBatch is the fleet loop's half of the serve
// package's test of the same name: completion events carry no batch, so the
// loop reads a finished prefill's members from the replica's in-flight
// buffer — and must therefore drop, on the epoch check, a completion whose
// pass a crash or a replica loss voided, even when it pops while the same
// replica runs a new pass. Here the voided request's retry is that new
// pass: delivered by the stale completion, it would finish one pass length
// after its first start instead of after its second, and the audit's
// busy-time ledger would not balance.
func TestStalePrefillNeverReadsNewBatch(t *testing.T) {
	// run routes two 64-token requests at t = 0, one to each replica of a
	// one-member fleet, applies fault at t = 1 ms and drains the fleet.
	run := func(name string, fault func(cs *csim, m *member)) (first, second *serve.Request, rep *Report) {
		t.Helper()
		cfg := testConfig()
		cfg.Instances = 1
		cfg.Base.Replicas = 2
		cfg.Base.MaxBatch = 1 // one request per pass
		cfg.Base.MinTokens, cfg.Base.MaxTokens, cfg.Base.MeanTokens = 64, 64, 64
		cfg.RatePerSec = 1e-9 // no arrival inside the window: the test routes by hand
		cfg.Retry = RetryConfig{BackoffSeconds: 1e-3}
		// Faults on, so a fleet with nothing routable parks work instead of
		// failing, but none is ever drawn; a repair takes about a microsecond.
		cfg.Faults = FaultConfig{Enabled: true, MTTFSeconds: 1e15, MTTRSeconds: 1e-6, LUTRematGBps: 1e9}
		cs, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cs.events.Len() != 0 {
			t.Fatalf("%s: %d events scheduled before the test routed anything", name, cs.events.Len())
		}
		m := cs.members[0]
		first, second = cs.newRequest(0, 0), cs.newRequest(0, 0)
		for _, r := range []*serve.Request{first, second} {
			if err := cs.route(r, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if b := m.inst.Inflight(1); len(b) != 1 || b[0] != second {
			t.Fatalf("%s: replica 1 is not running the second request: in flight %v", name, b)
		}
		// route bypassed the arrival case's counters; the audit reads them.
		cs.offered, cs.admitted = 2, 2
		cs.classes[0].offered, cs.classes[0].admitted = 2, 2
		if fault != nil {
			fault(cs, m)
		}
		if rep, err = cs.run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Completed != 2 {
			t.Fatalf("%s: %d of 2 requests completed", name, rep.Completed)
		}
		return first, second, rep
	}
	_, undisturbed, _ := run("no fault", nil)
	pass := undisturbed.Finish // one 64-token prefill pass, started at t = 0
	if pass < 10e-3 {
		t.Fatalf("a pass takes %g s: too short for a retry at 2 ms to overlap the voided completion", pass)
	}
	for name, fault := range map[string]func(cs *csim, m *member){
		"crash": func(cs *csim, m *member) { cs.crashMember(m, 1e-3, 1e-3) },
		"replica loss": func(cs *csim, m *member) {
			cs.onFault(&serve.Event{Inst: 0, Epoch: m.lifeEpoch, Flag: true}, 1e-3)
		},
	} {
		// The lost work backs off 1 ms and restarts at t = 2 ms; its voided
		// completion is still queued for t = pass, inside the new pass.
		_, second, rep := run(name, fault)
		if rep.Retries == 0 || second.Attempts != 2 || second.Start != 2e-3 {
			t.Fatalf("%s: %d retries; the second request made %d attempts, the last started at %g, want a retry at 0.002",
				name, rep.Retries, second.Attempts, second.Start)
		}
		if want := second.Start + pass; second.Finish != want {
			t.Errorf("%s: the retried request finished at %g, want %g (restart + one pass); the voided completion was due at %g",
				name, second.Finish, want, pass)
		}
	}
}
