package cluster

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
)

// chaosConfig is the kitchen-sink robustness scenario: independent
// faults, correlated domain outages, gray-failure stragglers and request
// hedging all enabled at once, with the conservation auditor armed. Decode
// traffic makes TTFT meaningful for hedge resolution.
func chaosConfig(seed int64) Config {
	return Config{
		Base: serve.Config{
			Model:     dnn.OPT125M(),
			Fmt:       quant.W1A3,
			Variant:   kernels.LoCaLUT,
			Replicas:  2,
			OutTokens: 4,
		},
		Instances:       8,
		RatePerSec:      30,
		DurationSeconds: 30,
		Seed:            seed,
		Audit:           true,
		DeadlineSeconds: 8,
		Faults: FaultConfig{
			Enabled:     true,
			MTTFSeconds: 120,
			MTTRSeconds: 2,
		},
		Domains: DomainConfig{
			Enabled:     true,
			Count:       4,
			MTBFSeconds: 60,
			MTTRSeconds: 2,
		},
		Stragglers: StragglerConfig{
			Enabled:             true,
			MTBFSeconds:         60,
			MeanDurationSeconds: 5,
			Slowdown:            4,
		},
		Hedge: HedgeConfig{
			Enabled:      true,
			DelaySeconds: 0.5,
		},
	}
}

// chaosScenarios are the sweep's three failure mixes: everything at once,
// correlated outages alone, and gray failures with hedging but no
// crashes. The CI chaos job runs the same mixes over 16+ seeds through
// localut-cluster -chaos.
func chaosScenarios() map[string]func(seed int64) Config {
	return map[string]func(seed int64) Config{
		"full": chaosConfig,
		"domains-only": func(seed int64) Config {
			cfg := chaosConfig(seed)
			cfg.Faults.Enabled = false
			cfg.Stragglers.Enabled = false
			cfg.Hedge.Enabled = false
			return cfg
		},
		"gray-hedged": func(seed int64) Config {
			cfg := chaosConfig(seed)
			cfg.Faults.Enabled = false
			cfg.Domains.Enabled = false
			return cfg
		},
	}
}

// TestChaosSeedSweep drives every failure mix across a seed sweep with
// the conservation auditor on: any leaked request, double-counted outage
// or over-refund fails Run itself. On top of the auditor, the report's
// user-facing counters must re-tell the same story.
func TestChaosSeedSweep(t *testing.T) {
	for name, mk := range chaosScenarios() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rep, err := Run(mk(seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Admitted != rep.Completed+rep.Shed {
					t.Errorf("seed %d: admitted %d != completed %d + shed %d",
						seed, rep.Admitted, rep.Completed, rep.Shed)
				}
				if rep.HedgesIssued != rep.HedgeCancels+rep.HedgeDrops {
					t.Errorf("seed %d: hedges %d != cancels %d + drops %d",
						seed, rep.HedgesIssued, rep.HedgeCancels, rep.HedgeDrops)
				}
				if rep.HedgeWastedSeconds < 0 {
					t.Errorf("seed %d: negative hedge waste %g", seed, rep.HedgeWastedSeconds)
				}
			}
		})
	}
}

// TestChaosDeterministic pins byte-identical chaos reports: the full mix
// re-run under the same seed must marshal to the same JSON. The CI job
// additionally diffs across engine parallelism levels. The saturated
// variant is the recycle-safety check: it crashes, hedges, cancels and
// sheds with the auditor on, and a differently shaped run sits between its
// two executions — events, batch buffers, completion buffers and request
// slabs all belong to one run, so nothing of that run may show in the rerun.
func TestChaosDeterministic(t *testing.T) {
	base := clusterJSON(t, chaosConfig(3))
	if again := clusterJSON(t, chaosConfig(3)); string(again) != string(base) {
		t.Fatal("same chaos seed diverged run to run")
	}

	saturated := chaosConfig(1)
	saturated.RatePerSec = 200
	saturated.DurationSeconds = 60
	first := clusterJSON(t, saturated)
	other := chaosConfig(4)
	other.Instances = 5
	other.Base.Replicas = 3
	other.DurationSeconds = 45
	clusterJSON(t, other)
	if again := clusterJSON(t, saturated); string(again) != string(first) {
		t.Fatal("saturated chaos report changed when rerun after a differently sized run")
	}
}

// TestDomainOverlapRegression is the double-counting regression: domain
// outages frequent enough to land while earlier repairs (including their
// LUT re-materialization) are still in flight must merge into one outage
// window — UnavailableSeconds must equal the timeline's repair evidence
// exactly, and no epoch-stale completion may resurrect.
func TestDomainOverlapRegression(t *testing.T) {
	cfg := chaosConfig(1)
	cfg.Hedge.Enabled = false
	cfg.Stragglers.Enabled = false
	cfg.Faults.MTTFSeconds = 40
	cfg.Faults.MTTRSeconds = 6
	cfg.Domains.MTBFSeconds = 12
	cfg.Domains.MTTRSeconds = 6
	rep, err := Run(cfg) // Audit on: double-counting fails Run outright
	if err != nil {
		t.Fatal(err)
	}
	if rep.DomainOutages == 0 {
		t.Fatal("scenario produced no domain outages")
	}
	if rep.DomainOverlapExtensions == 0 {
		t.Fatal("scenario produced no overlapping outage; the regression path never ran")
	}
	var evidence float64
	for _, ev := range rep.Timeline {
		if ev.Kind == KindFault && ev.Action == "repair" {
			evidence += ev.RecoverSeconds
		}
	}
	if rep.UnavailableSeconds != evidence {
		t.Errorf("unavailable %g != timeline repair evidence %g (outage double-counted or lost)",
			rep.UnavailableSeconds, evidence)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Errorf("admitted %d != completed %d + shed %d (stale completion resurrected?)",
			rep.Admitted, rep.Completed, rep.Shed)
	}
	for _, ir := range rep.Instances {
		if ir.Requests != ir.Completed+ir.Shed+ir.Canceled+ir.Displaced {
			t.Errorf("instance %d ledger leak: %d != %d+%d+%d+%d",
				ir.ID, ir.Requests, ir.Completed, ir.Shed, ir.Canceled, ir.Displaced)
		}
	}
}

// TestChaosStreamsDecoupled pins the twin-comparability property: the
// fault, domain and straggler schedules are drawn from their own seeded
// streams, so toggling hedging must not move a single crash, outage or
// slowdown window.
func TestChaosStreamsDecoupled(t *testing.T) {
	on, err := Run(chaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	offCfg := chaosConfig(2)
	offCfg.Hedge.Enabled = false
	off, err := Run(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.HedgesIssued == 0 {
		t.Error("hedging enabled but no hedges issued; the comparison is vacuous")
	}
	if on.Crashes != off.Crashes || on.DomainOutages != off.DomainOutages ||
		on.StragglerWindows != off.StragglerWindows {
		t.Errorf("hedging perturbed the injection schedule: crashes %d/%d outages %d/%d windows %d/%d",
			on.Crashes, off.Crashes, on.DomainOutages, off.DomainOutages,
			on.StragglerWindows, off.StragglerWindows)
	}
}

// TestChaosMetamorphic checks the sweep's metamorphic relation: injecting
// failures can only destroy useful work, so under the same seed the chaos
// run's goodput must not exceed its failure-free twin's (which itself must
// report a perfectly clean fault ledger).
func TestChaosMetamorphic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		clean := chaosConfig(seed)
		clean.Faults.Enabled = false
		clean.Domains.Enabled = false
		clean.Stragglers.Enabled = false
		clean.Hedge.Enabled = false
		cleanRep, err := Run(clean)
		if err != nil {
			t.Fatal(err)
		}
		if cleanRep.UnavailableSeconds != 0 || cleanRep.Crashes != 0 || cleanRep.StragglerWindows != 0 {
			t.Fatalf("seed %d: failure-free twin reports failures", seed)
		}
		chaosRep, err := Run(chaosConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if chaosRep.Good > cleanRep.Good {
			t.Errorf("seed %d: chaos goodput %d exceeds failure-free %d",
				seed, chaosRep.Good, cleanRep.Good)
		}
	}
}

// hedgeDemoConfig is the acceptance scenario for hedging: an 8-member
// fleet under gray-failure injection (4x slowdown windows, roughly one
// member straggling at a time), no crashes, hedging resolved at first
// token. delay 0 disables hedging — the no-hedge twin sees the identical
// straggler schedule.
func hedgeDemoConfig(delay float64) Config {
	cfg := chaosConfig(1)
	cfg.DurationSeconds = 60
	cfg.Faults.Enabled = false
	cfg.Domains.Enabled = false
	cfg.Stragglers = StragglerConfig{
		Enabled:             true,
		MTBFSeconds:         80,
		MeanDurationSeconds: 5,
		Slowdown:            4,
	}
	cfg.Hedge = HedgeConfig{Enabled: delay > 0, DelaySeconds: delay}
	return cfg
}

// TestHedgingImprovesTailUnderStragglers is the headline robustness
// claim: with one-in-eight members intermittently 4x slow, hedging must
// buy back TTFT p99 versus the no-hedge twin while wasting less than 10%
// of fleet busy time on cancelled duplicates.
func TestHedgingImprovesTailUnderStragglers(t *testing.T) {
	base, err := Run(hedgeDemoConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if base.StragglerWindows == 0 {
		t.Fatal("no straggler windows; the scenario is vacuous")
	}
	hedged, err := Run(hedgeDemoConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if hedged.StragglerWindows != base.StragglerWindows {
		t.Fatalf("hedging moved the straggler schedule: %d vs %d windows",
			hedged.StragglerWindows, base.StragglerWindows)
	}
	if hedged.HedgesIssued == 0 || hedged.HedgeWins == 0 {
		t.Fatalf("hedging never engaged (issued %d, wins %d)", hedged.HedgesIssued, hedged.HedgeWins)
	}
	t.Logf("TTFT p99: no-hedge %.4fs hedged %.4fs; hedges=%d wins=%d waste=%.3fs busy=%.1fs",
		base.TTFT.P99, hedged.TTFT.P99, hedged.HedgesIssued, hedged.HedgeWins,
		hedged.HedgeWastedSeconds, hedged.BusySeconds)
	if hedged.TTFT.P99 >= base.TTFT.P99 {
		t.Errorf("hedging did not improve TTFT p99: %.4fs vs %.4fs", hedged.TTFT.P99, base.TTFT.P99)
	}
	if frac := hedged.HedgeWastedSeconds / hedged.BusySeconds; frac >= 0.10 {
		t.Errorf("hedge waste %.1f%% of busy time exceeds the 10%% budget", 100*frac)
	}
}

// TestHedgeTimerHoldsShedRequest pins the hold a hedge timer keeps on its
// request. Routing can shed an arrival at once when every bounded queue is
// full, before the arrival schedules the request's hedge timer; had the
// shed freed the slot, the next arrival would reuse it and the timer would
// hedge that other request. The hold goes on when the request is carved,
// so a shed leaves it to the timer, and onHedgeTimer fails the run if it
// ever finds its request's hold gone.
func TestHedgeTimerHoldsShedRequest(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = FaultConfig{}
	cfg.RatePerSec = 150 // several times the fleet's capacity: arrivals shed
	cfg.DurationSeconds = 10
	cfg.Base.MaxQueue = 2
	cfg.Hedge = HedgeConfig{Enabled: true, DelaySeconds: 0.02}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShedQueueFull == 0 || rep.HedgesIssued == 0 {
		t.Fatalf("queue-full sheds %d, hedges %d: the run must do both", rep.ShedQueueFull, rep.HedgesIssued)
	}
	t.Logf("%d admitted, %d shed with full queues, %d hedges issued", rep.Admitted, rep.ShedQueueFull, rep.HedgesIssued)
}

// TestChaosConfigValidation rejects nonsensical chaos plans with clear
// errors before any simulation state is built.
func TestChaosConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"domain count negative":  func(c *Config) { c.Domains = DomainConfig{Enabled: true, Count: -1, MTBFSeconds: 10} },
		"domain mtbf missing":    func(c *Config) { c.Domains = DomainConfig{Enabled: true} },
		"domain mttr negative":   func(c *Config) { c.Domains = DomainConfig{Enabled: true, MTBFSeconds: 10, MTTRSeconds: -1} },
		"straggler mtbf missing": func(c *Config) { c.Stragglers = StragglerConfig{Enabled: true} },
		"straggler duration bad": func(c *Config) {
			c.Stragglers = StragglerConfig{Enabled: true, MTBFSeconds: 10, MeanDurationSeconds: -2}
		},
		"straggler slowdown weak": func(c *Config) { c.Stragglers = StragglerConfig{Enabled: true, MTBFSeconds: 10, Slowdown: 0.5} },
		"hedge delay missing":     func(c *Config) { c.Hedge = HedgeConfig{Enabled: true} },
		"hedge delay negative":    func(c *Config) { c.Hedge = HedgeConfig{Enabled: true, DelaySeconds: -0.1} },
		"class hedge delay negative": func(c *Config) {
			c.Classes = []ClassConfig{{RatePerSec: 1, HedgeDelaySeconds: -1}}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("invalid chaos config accepted")
			}
		})
	}
}

// TestChaosReportJSONRoundTrip guards the report schema the golden files
// depend on: chaos counters must survive a marshal/unmarshal round trip.
func TestChaosReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(chaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.DomainOutages != rep.DomainOutages || back.HedgesIssued != rep.HedgesIssued ||
		back.StragglerWindows != rep.StragglerWindows || back.HedgeWastedSeconds != rep.HedgeWastedSeconds {
		t.Errorf("chaos counters did not round-trip: %+v vs %+v", back, rep)
	}
}

// TestChaosSaturatedAudited pins the same-batch hedge race: at a load
// high enough that crash-displaced primaries get rerouted onto the
// member already serving their hedge copy, both copies of a pair can
// land in one prefill batch. The winner's first-token callback settles
// the race mid-batch, and Cancel must still find the loser in the
// completing batch and mark it canceled — a miss double-completes the
// request, which the always-on auditor reports as a request-conservation
// violation (admitted != completed + shed).
func TestChaosSaturatedAudited(t *testing.T) {
	cfg := chaosConfig(1)
	cfg.RatePerSec = 200
	cfg.DurationSeconds = 60
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HedgesIssued == 0 || rep.Crashes == 0 || rep.Shed == 0 {
		t.Fatalf("scenario too tame to exercise the race: %d hedges, %d crashes, %d shed",
			rep.HedgesIssued, rep.Crashes, rep.Shed)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Errorf("request conservation broken: admitted %d != completed %d + shed %d",
			rep.Admitted, rep.Completed, rep.Shed)
	}
}

// TestAuditRejectsNonFiniteLatency pins the auditor's finite-latency
// invariant: a clean run audits clean, and one NaN or infinite sample in
// any latency histogram — fleet-wide or per class — is a violation, since
// the histogram counted it in NonFinite and left it out of every statistic.
func TestAuditRejectsNonFiniteLatency(t *testing.T) {
	cfg := chaosConfig(1)
	cfg.DurationSeconds = 5
	for name, poison := range map[string]func(*csim){
		"fleet TTFT":    func(cs *csim) { cs.ttft.Add(math.NaN()) },
		"class latency": func(cs *csim) { cs.classes[0].tLat.Add(math.Inf(1)) },
	} {
		cs, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.run(); err != nil {
			t.Fatalf("%s: clean run failed its audit: %v", name, err)
		}
		poison(cs)
		if err := cs.auditRun(); err == nil || !strings.Contains(err.Error(), "finite-latency") {
			t.Errorf("%s: audit of a run with a non-finite sample returned %v, want a finite-latency violation", name, err)
		}
	}
}
