package localut

import (
	"strings"

	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/serve"
)

// RouterPolicy selects how a cluster spreads requests over its fleet.
type RouterPolicy int

const (
	// RouteRoundRobin cycles through the routable instances.
	RouteRoundRobin RouterPolicy = iota
	// RouteLeastOutstanding picks the instance with the fewest
	// admitted-but-unfinished requests.
	RouteLeastOutstanding
	// RouteWeightedFreeKV picks the instance with the most free KV-cache
	// capacity — the capacity-axis-aware router for decode-heavy fleets.
	RouteWeightedFreeKV
	// RouteShapeAffinity hashes the padded request shape over the fleet,
	// concentrating same-shape requests for uniform batches.
	RouteShapeAffinity
)

// String names the policy ("round-robin", "least-outstanding",
// "weighted-kv", "shape-affinity").
func (p RouterPolicy) String() string { return cluster.RouterPolicy(p).String() }

// ParseRouterPolicy parses a router-policy name, case-insensitively.
func ParseRouterPolicy(s string) (RouterPolicy, error) {
	p, err := cluster.ParseRouterPolicy(strings.ToLower(s))
	return RouterPolicy(p), err
}

// AdmissionPolicy selects the cluster's admission controller.
type AdmissionPolicy int

const (
	// AdmitAll admits every arrival.
	AdmitAll AdmissionPolicy = iota
	// AdmitTokenBucket rate-limits each SLO class with its own token
	// bucket (sustained rate + burst depth).
	AdmitTokenBucket
)

// String names the policy ("admit-all", "token-bucket").
func (p AdmissionPolicy) String() string { return cluster.AdmissionPolicy(p).String() }

// ParseAdmissionPolicy parses an admission-policy name, case-insensitively.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	p, err := cluster.ParseAdmissionPolicy(strings.ToLower(s))
	return AdmissionPolicy(p), err
}

// KVPolicy selects how each appliance treats its per-replica KV-cache
// capacity: as a passive gauge (reported, never enforced), as a stall
// budget (prefill admission waits until decode retirements free KV), or
// as a shed budget (requests that don't fit are dropped with accounting).
type KVPolicy int

const (
	// KVGauge reports KV peak/capacity but never enforces the budget.
	KVGauge KVPolicy = iota
	// KVStall enforces the budget by stalling prefill admission.
	KVStall
	// KVShed enforces the budget by shedding what does not fit.
	KVShed
)

// String names the policy ("gauge", "stall", "shed").
func (p KVPolicy) String() string { return serve.KVPolicy(p).String() }

// ParseKVPolicy parses a KV-policy name, case-insensitively.
func ParseKVPolicy(s string) (KVPolicy, error) {
	p, err := serve.ParseKVPolicy(strings.ToLower(s))
	return KVPolicy(p), err
}

// ClusterFaults is the deterministic fault plan: every instance draws
// exponential fail-stop times (mean MTTFSeconds) from its own seeded
// stream. A crashed appliance leaves the router, its queued requests
// reroute, and its in-flight batches and live decode state are lost —
// retried work pays full re-prefill, and the appliance pays an
// exponential repair delay (mean MTTRSeconds) plus a modeled LUT
// re-materialization latency before returning to service. With
// probability DegradedFraction a fault instead degrades one replica
// (rank group) and the instance keeps serving at reduced capacity.
type ClusterFaults struct {
	Enabled bool
	// MTTFSeconds is the per-instance mean time to failure (required
	// when enabled).
	MTTFSeconds float64
	// MTTRSeconds is the mean repair delay (default 5).
	MTTRSeconds float64
	// DegradedFraction is the probability a fault is a single-replica
	// loss instead of a crash (default 0).
	DegradedFraction float64
	// LUTRematGBps is the assumed DRAM write bandwidth for re-materializing
	// the appliance's LUT budget on recovery (default 16).
	LUTRematGBps float64
}

// ClusterDomains is the correlated-failure plan: instances are grouped
// into Count failure domains (racks, power feeds) by ID modulo Count, and
// every active member of a domain fail-stops at the same instant when the
// domain's seeded outage stream fires, sharing one repair window. A
// member already down has its repair extended, never shortened — the
// overlapping windows merge into one outage span counted once.
type ClusterDomains struct {
	Enabled bool
	// Count is the number of failure domains (default 2).
	Count int
	// MTBFSeconds is the per-domain mean time between outages (required
	// when enabled).
	MTBFSeconds float64
	// MTTRSeconds is the mean domain repair delay (default 10); full LUT
	// re-materialization is added on top, as for instance faults.
	MTTRSeconds float64
}

// ClusterStragglers is the gray-failure plan: members draw seeded
// slowdown windows during which every pass they launch costs Slowdown
// times its healthy pricing — they keep serving and stay routable, which
// is exactly the tail hazard request hedging exists for.
type ClusterStragglers struct {
	Enabled bool
	// MTBFSeconds is the per-member mean time between slowdown windows
	// (required when enabled).
	MTBFSeconds float64
	// MeanDurationSeconds is the mean window length (default 5).
	MeanDurationSeconds float64
	// Slowdown is the cost multiplier inside a window; must exceed 1
	// (default 4).
	Slowdown float64
}

// ClusterHedge duplicates requests still waiting for their first token
// DelaySeconds after arrival onto a second member (fewest outstanding,
// excluding the current one). First token wins; the loser is cancelled
// with the unelapsed share of its pass refunded and the spent share
// reported as hedge waste. Each request hedges at most once.
type ClusterHedge struct {
	Enabled bool
	// DelaySeconds is the default hedge trigger (required when enabled);
	// classes can override it via ClusterClass.HedgeDelaySeconds.
	DelaySeconds float64
}

// ClusterRetry governs re-service of work lost to faults: capped
// exponential backoff with a bounded number of attempts.
type ClusterRetry struct {
	// MaxAttempts bounds total service attempts per request (default 3).
	MaxAttempts int
	// BackoffSeconds is the first retry delay (default 0.05); attempt k
	// waits BackoffSeconds * 2^(k-1), capped at BackoffCapSeconds.
	BackoffSeconds float64
	// BackoffCapSeconds caps the backoff (default 1).
	BackoffCapSeconds float64
}

// ClusterDeadlines gives requests completion deadlines so the report can
// separate goodput (deadline-met completions per second) from raw
// throughput. Work that cannot finish in time is shed with accounting.
type ClusterDeadlines struct {
	// DefaultSeconds applies to every class that does not set its own
	// DeadlineSeconds (0 = no deadline).
	DefaultSeconds float64
}

// ClusterClass is one SLO class of cluster traffic: an independent
// open-loop Poisson population with its own rate, length distributions,
// admission budget and latency objectives. Zero length/decode fields
// inherit the cluster-level defaults.
type ClusterClass struct {
	Name       string
	RatePerSec float64

	// AdmitRatePerSec/AdmitBurst parameterize the class's token bucket
	// under AdmitTokenBucket (defaults: the class rate, and one second of
	// it, at least 1).
	AdmitRatePerSec float64
	AdmitBurst      float64

	MinTokens, MaxTokens int
	MeanTokens           float64

	OutTokens     int
	OutTokensMean float64
	OutTokensMax  int

	// p99 SLO targets in seconds (0 = not tracked).
	TTFTp99SLO    float64
	LatencyP99SLO float64
	TPOTp99SLO    float64

	// DeadlineSeconds is this class's completion deadline (0 inherits
	// Deadlines.DefaultSeconds).
	DeadlineSeconds float64

	// HedgeDelaySeconds overrides Hedge.DelaySeconds for this class when
	// hedging is enabled (0 = inherit the fleet default).
	HedgeDelaySeconds float64
}

// ClusterAutoscaler parameterizes the reactive autoscaler: every
// IntervalSeconds it compares the window's response-start p99 against
// SLOSeconds, launching an instance (routable after WarmupSeconds) when
// above, and draining one (stop routing, finish work, retire after
// DrainSeconds) when far below or idle.
type ClusterAutoscaler struct {
	Enabled                    bool
	MinInstances, MaxInstances int
	IntervalSeconds            float64
	SLOSeconds                 float64
	ScaleDownFactor            float64
	WarmupSeconds              float64
	DrainSeconds               float64
}

// ClusterConfig describes one cluster-scale serving simulation: a fleet
// of appliances — each a full request-level serving instance — behind a
// router, admission control and an optional autoscaler.
type ClusterConfig struct {
	Model  Model
	Format Format
	Design Design
	// Designs optionally makes the fleet heterogeneous: instance i runs
	// Designs[i mod len], covering autoscaled instances too. Empty =
	// every instance runs Design.
	Designs []Design

	// Instances is the initial fleet size (default 2).
	Instances int
	// Replicas splits each appliance's ranks into independent serving
	// groups (default 4).
	Replicas int

	Router    RouterPolicy
	Admission AdmissionPolicy

	// Classes lists the traffic populations; empty Classes with a
	// positive RatePerSec is shorthand for one "default" class.
	Classes    []ClusterClass
	RatePerSec float64

	DurationSeconds float64
	// Seed overrides the system seed for this run (0 = system seed).
	Seed int64

	MaxBatch  int
	Scheduler SchedulerPolicy

	MinTokens, MaxTokens int
	MeanTokens           float64
	TokenQuantum         int

	OutTokens     int
	OutTokensMean float64
	OutTokensMax  int

	// MaxQueue bounds each appliance's admission queue (0 = unbounded);
	// arrivals that find every routable queue full are shed.
	MaxQueue int
	// KVPolicy turns the per-replica KV gauge into an enforced budget.
	KVPolicy KVPolicy

	Autoscaler ClusterAutoscaler

	Faults     ClusterFaults
	Domains    ClusterDomains
	Stragglers ClusterStragglers
	Hedge      ClusterHedge
	Deadlines  ClusterDeadlines
	Retry      ClusterRetry

	// Audit runs the conservation auditor after the drain: request,
	// busy-time, KV and outage-window ledgers must balance exactly, and
	// any violation turns the run into an error instead of a report.
	Audit bool

	// Obs attaches the observability layer: fleet trace export and
	// interval time-series metrics. The zero value records nothing.
	Obs ObsConfig
}

// ClusterInstanceReport summarizes one fleet member.
type ClusterInstanceReport struct {
	ID       int    `json:"id"`
	Design   string `json:"design"`
	Replicas int    `json:"replicas"`

	UpSeconds     float64 `json:"up_s"`
	ActiveSeconds float64 `json:"active_s"`
	DrainSeconds  float64 `json:"drain_s,omitempty"`
	DownSeconds   float64 `json:"down_s,omitempty"`

	// Domain is the member's failure domain under correlated fault
	// injection (-1 when failure domains are off).
	Domain int `json:"domain"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Shed      int `json:"shed,omitempty"`
	// Canceled counts hedge losers cancelled here; Displaced counts
	// requests a fault handed back. With them the member's ledger closes:
	// requests == completed + shed + canceled + displaced after the drain.
	Canceled    int `json:"canceled,omitempty"`
	Displaced   int `json:"displaced,omitempty"`
	Batches     int `json:"batches"`
	DecodeSteps int `json:"decode_steps"`

	Crashes            int     `json:"crashes,omitempty"`
	Degraded           int     `json:"degraded,omitempty"`
	StragglerWindows   int     `json:"straggler_windows,omitempty"`
	UnavailableSeconds float64 `json:"unavailable_s,omitempty"`

	// BusySeconds sums per-replica service time with hedge-cancel refunds
	// applied — the denominator for hedge-waste fractions.
	BusySeconds float64 `json:"busy_s"`

	MeanBatchSize float64 `json:"mean_batch_size"`
	Utilization   float64 `json:"utilization"`
	PIMShare      float64 `json:"pim_share"`

	TokensIn     int64 `json:"tokens_in"`
	TokensPadded int64 `json:"tokens_padded"`
	TokensOut    int64 `json:"tokens_out"`

	EnergyJ         float64 `json:"energy_j"`
	KVPeakBytes     int64   `json:"kv_peak_bytes"`
	KVCapacityBytes int64   `json:"kv_capacity_bytes"`
	// KVMeanBytes is the time-weighted mean KV footprint per replica over
	// this member's life; KVMeanUtilization is its share of capacity.
	KVMeanBytes       float64 `json:"kv_mean_bytes"`
	KVMeanUtilization float64 `json:"kv_mean_utilization"`
}

// ClusterClassReport summarizes one SLO class.
type ClusterClassReport struct {
	Name       string  `json:"name"`
	RatePerSec float64 `json:"rate_per_s"`

	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	Good             int     `json:"good"`
	GoodputPerSec    float64 `json:"goodput_per_s"`
	DeadlineMisses   int     `json:"deadline_misses"`
	Shed             int     `json:"shed"`
	Retries          int     `json:"retries"`
	DeadlineSeconds  float64 `json:"deadline_s,omitempty"`
	DeadlineMissRate float64 `json:"deadline_miss_rate"`

	Latency LatencyStats `json:"latency"`
	TTFT    LatencyStats `json:"ttft"`
	TPOT    LatencyStats `json:"tpot"`

	TTFTp99SLO    float64 `json:"ttft_p99_slo_s,omitempty"`
	LatencyP99SLO float64 `json:"latency_p99_slo_s,omitempty"`
	TPOTp99SLO    float64 `json:"tpot_p99_slo_s,omitempty"`
	SLOMet        bool    `json:"slo_met"`
}

// ClusterTimelineEvent is one entry of the unified fleet timeline:
// autoscaler actions ("tick", "up-start", "up-active", "drain-start",
// "down" under kind "scale"), fault injection and recovery ("crash",
// "repair", "degrade", "replica-repair" under kind "fault"),
// correlated outages ("outage", "repair" under kind "domain-outage"),
// gray-failure windows ("start", "end" under kind "straggler"), hedge
// traffic ("issue", "win" under kind "hedge") and KV-pressure sheds
// ("kv-shed" under kind "kv"), in event order.
type ClusterTimelineEvent struct {
	Seconds float64 `json:"t_s"`
	Kind    string  `json:"kind"`
	Action  string  `json:"action"`
	// Instance is the affected member (-1 for fleet-level entries such as
	// autoscaler ticks); Replica is the replica a degraded-mode fault
	// touched (-1 otherwise).
	Instance int `json:"instance"`
	Replica  int `json:"replica"`
	// Active counts routable instances after the event.
	Active int `json:"active"`
	// P99 and Samples describe the autoscaler window behind a tick.
	P99     float64 `json:"p99_s,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// RecoverSeconds is the crash-to-repair outage a "repair" closed,
	// including the LUT re-materialization surcharge.
	RecoverSeconds float64 `json:"recover_s,omitempty"`
	// Domain is the failure domain behind a kind "domain-outage" entry
	// (meaningful only there; domain 0 omits the field).
	Domain int `json:"domain,omitempty"`
}

// ClusterReport is the outcome of one cluster simulation. Like
// ServeReport it is bit-reproducible: the same seed, config and
// parallelism-agnostic engine yield a byte-identical JSON encoding on
// every run, including mid-run scale-up/scale-down.
type ClusterReport struct {
	Model     string `json:"model"`
	Format    string `json:"format"`
	Router    string `json:"router"`
	Admission string `json:"admission"`

	InstancesInitial int `json:"instances_initial"`
	InstancesPeak    int `json:"instances_peak"`
	InstancesFinal   int `json:"instances_final"`

	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	DurationSeconds float64 `json:"duration_s"`
	MakespanSeconds float64 `json:"makespan_s"`

	OfferedPerSec    float64 `json:"offered_per_s"`
	ThroughputPerSec float64 `json:"throughput_per_s"`
	TokensPerSec     float64 `json:"tokens_per_s"`

	// Reliability rows: goodput counts deadline-met completions only, and
	// shed work decomposes by cause. After the drain admitted ==
	// completed + shed.
	Good            int     `json:"good"`
	GoodputPerSec   float64 `json:"goodput_per_s"`
	DeadlineMisses  int     `json:"deadline_misses"`
	Retries         int     `json:"retries"`
	ReprefillTokens int64   `json:"reprefill_tokens"`
	Shed            int     `json:"shed"`
	ShedExpired     int     `json:"shed_expired"`
	ShedKV          int     `json:"shed_kv"`
	ShedQueueFull   int     `json:"shed_queue_full"`
	ShedRetries     int     `json:"shed_retries"`

	Crashes            int          `json:"crashes"`
	DegradedEvents     int          `json:"degraded_events"`
	UnavailableSeconds float64      `json:"unavailable_s"`
	TimeToRecover      LatencyStats `json:"time_to_recover"`
	LUTRematSeconds    float64      `json:"lut_remat_s"`

	// Correlated-failure rows: domain-wide outages, and member repairs an
	// overlapping outage extended (merged into one window, counted once).
	DomainOutages           int `json:"domain_outages,omitempty"`
	DomainOverlapExtensions int `json:"domain_overlap_extensions,omitempty"`

	// Gray-failure and hedging rows. Hedges balance exactly: issued ==
	// cancels + drops, wins are resolutions the duplicate won, and
	// hedge_waste_s is busy time spent on cancelled losers (compare with
	// busy_s for the waste fraction).
	StragglerWindows   int     `json:"straggler_windows,omitempty"`
	HedgesIssued       int     `json:"hedges_issued,omitempty"`
	HedgeWins          int     `json:"hedge_wins,omitempty"`
	HedgeCancels       int     `json:"hedge_cancels,omitempty"`
	HedgeDrops         int     `json:"hedge_drops,omitempty"`
	HedgeWastedSeconds float64 `json:"hedge_waste_s,omitempty"`

	// BusySeconds is fleet-wide replica service time, refunds applied.
	BusySeconds float64 `json:"busy_s"`

	Queue   LatencyStats `json:"queue"`
	Service LatencyStats `json:"service"`
	Latency LatencyStats `json:"latency"`
	TTFT    LatencyStats `json:"ttft"`
	TPOT    LatencyStats `json:"tpot"`

	TokensIn     int64 `json:"tokens_in"`
	TokensPadded int64 `json:"tokens_padded"`
	TokensOut    int64 `json:"tokens_out"`

	EnergyJ           float64 `json:"energy_j"`
	EnergyPerRequestJ float64 `json:"energy_per_request_j"`

	KVPeakBytes     int64 `json:"kv_peak_bytes"`
	KVCapacityBytes int64 `json:"kv_capacity_bytes"`
	// Fleet KV pressure, time-weighted across member lifetimes.
	KVMeanBytes       float64 `json:"kv_mean_bytes"`
	KVMeanUtilization float64 `json:"kv_mean_utilization"`

	DistinctForwardSims int `json:"distinct_forward_sims"`

	Instances []ClusterInstanceReport `json:"instances"`
	Classes   []ClusterClassReport    `json:"classes"`
	// Timeline is the unified fleet event stream (autoscaler, faults,
	// KV sheds), empty when neither subsystem is enabled.
	Timeline []ClusterTimelineEvent `json:"timeline,omitempty"`
}

// ServeCluster runs a cluster-scale serving simulation: a routed,
// admission-controlled, optionally autoscaled fleet of appliances sharing
// one discrete-event clock. Fleet members with the same design share a
// memoized pricing oracle, so a million-request fleet prices each distinct
// forward-pass shape once.
func (s *System) ServeCluster(cfg ClusterConfig) (*ClusterReport, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = s.seed
	}
	rec, met := cfg.Obs.build()
	ccfg := cluster.Config{
		Base: serve.Config{
			Model:   cfg.Model.config(),
			Fmt:     cfg.Format.inner,
			Variant: cfg.Design.variant(),

			Engine: s.engine,
			Energy: s.energy,

			Replicas: cfg.Replicas,

			MaxBatch:  cfg.MaxBatch,
			Scheduler: serve.Policy(cfg.Scheduler),

			MinTokens:    cfg.MinTokens,
			MaxTokens:    cfg.MaxTokens,
			MeanTokens:   cfg.MeanTokens,
			TokenQuantum: cfg.TokenQuantum,

			OutTokens:     cfg.OutTokens,
			OutTokensMean: cfg.OutTokensMean,
			OutTokensMax:  cfg.OutTokensMax,

			MaxQueue: cfg.MaxQueue,
			KVPolicy: serve.KVPolicy(cfg.KVPolicy),
		},
		Instances: cfg.Instances,
		Router:    cluster.RouterPolicy(cfg.Router),
		Admission: cluster.AdmissionPolicy(cfg.Admission),

		RatePerSec:      cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds,
		Seed:            seed,

		Autoscaler: cluster.AutoscalerConfig{
			Enabled:         cfg.Autoscaler.Enabled,
			MinInstances:    cfg.Autoscaler.MinInstances,
			MaxInstances:    cfg.Autoscaler.MaxInstances,
			IntervalSeconds: cfg.Autoscaler.IntervalSeconds,
			SLOSeconds:      cfg.Autoscaler.SLOSeconds,
			ScaleDownFactor: cfg.Autoscaler.ScaleDownFactor,
			WarmupSeconds:   cfg.Autoscaler.WarmupSeconds,
			DrainSeconds:    cfg.Autoscaler.DrainSeconds,
		},

		Faults: cluster.FaultConfig{
			Enabled:          cfg.Faults.Enabled,
			MTTFSeconds:      cfg.Faults.MTTFSeconds,
			MTTRSeconds:      cfg.Faults.MTTRSeconds,
			DegradedFraction: cfg.Faults.DegradedFraction,
			LUTRematGBps:     cfg.Faults.LUTRematGBps,
		},
		Domains: cluster.DomainConfig{
			Enabled:     cfg.Domains.Enabled,
			Count:       cfg.Domains.Count,
			MTBFSeconds: cfg.Domains.MTBFSeconds,
			MTTRSeconds: cfg.Domains.MTTRSeconds,
		},
		Stragglers: cluster.StragglerConfig{
			Enabled:             cfg.Stragglers.Enabled,
			MTBFSeconds:         cfg.Stragglers.MTBFSeconds,
			MeanDurationSeconds: cfg.Stragglers.MeanDurationSeconds,
			Slowdown:            cfg.Stragglers.Slowdown,
		},
		Hedge: cluster.HedgeConfig{
			Enabled:      cfg.Hedge.Enabled,
			DelaySeconds: cfg.Hedge.DelaySeconds,
		},
		Retry: cluster.RetryConfig{
			MaxAttempts:       cfg.Retry.MaxAttempts,
			BackoffSeconds:    cfg.Retry.BackoffSeconds,
			BackoffCapSeconds: cfg.Retry.BackoffCapSeconds,
		},
		Audit:           cfg.Audit,
		DeadlineSeconds: cfg.Deadlines.DefaultSeconds,

		Recorder: rec,
		Metrics:  met,
	}
	for _, d := range cfg.Designs {
		ccfg.Designs = append(ccfg.Designs, d.variant())
	}
	for _, c := range cfg.Classes {
		ccfg.Classes = append(ccfg.Classes, cluster.ClassConfig{
			Name:              c.Name,
			RatePerSec:        c.RatePerSec,
			AdmitRatePerSec:   c.AdmitRatePerSec,
			AdmitBurst:        c.AdmitBurst,
			MinTokens:         c.MinTokens,
			MaxTokens:         c.MaxTokens,
			MeanTokens:        c.MeanTokens,
			OutTokens:         c.OutTokens,
			OutTokensMean:     c.OutTokensMean,
			OutTokensMax:      c.OutTokensMax,
			TTFTp99SLO:        c.TTFTp99SLO,
			LatencyP99SLO:     c.LatencyP99SLO,
			TPOTp99SLO:        c.TPOTp99SLO,
			DeadlineSeconds:   c.DeadlineSeconds,
			HedgeDelaySeconds: c.HedgeDelaySeconds,
		})
	}
	rep, err := cluster.Run(ccfg)
	if err != nil {
		rec.Abandon()
		return nil, err
	}
	if err := cfg.Obs.export(rec, met); err != nil {
		return nil, err
	}
	return clusterReport(cfg, rep), nil
}

// clusterReport converts the internal report to the public shape.
func clusterReport(cfg ClusterConfig, r *cluster.Report) *ClusterReport {
	stats := func(s serve.Stats) LatencyStats {
		return LatencyStats{P50: s.P50, P95: s.P95, P99: s.P99, Mean: s.Mean, Max: s.Max}
	}
	out := &ClusterReport{
		Model:     cfg.Model.String(),
		Format:    cfg.Format.Name(),
		Router:    r.Router,
		Admission: r.Admission,

		InstancesInitial: r.InstancesInitial,
		InstancesPeak:    r.InstancesPeak,
		InstancesFinal:   r.InstancesFinal,

		Offered:   r.Offered,
		Admitted:  r.Admitted,
		Rejected:  r.Rejected,
		Completed: r.Completed,

		DurationSeconds: r.DurationSeconds,
		MakespanSeconds: r.MakespanSeconds,

		OfferedPerSec:    r.OfferedPerSec,
		ThroughputPerSec: r.ThroughputPerSec,
		TokensPerSec:     r.TokensPerSec,

		Good:            r.Good,
		GoodputPerSec:   r.GoodputPerSec,
		DeadlineMisses:  r.DeadlineMisses,
		Retries:         r.Retries,
		ReprefillTokens: r.ReprefillTokens,
		Shed:            r.Shed,
		ShedExpired:     r.ShedExpired,
		ShedKV:          r.ShedKV,
		ShedQueueFull:   r.ShedQueueFull,
		ShedRetries:     r.ShedRetries,

		Crashes:            r.Crashes,
		DegradedEvents:     r.DegradedEvents,
		UnavailableSeconds: r.UnavailableSeconds,
		TimeToRecover:      stats(r.TimeToRecover),
		LUTRematSeconds:    r.LUTRematSeconds,

		DomainOutages:           r.DomainOutages,
		DomainOverlapExtensions: r.DomainOverlapExtensions,
		StragglerWindows:        r.StragglerWindows,
		HedgesIssued:            r.HedgesIssued,
		HedgeWins:               r.HedgeWins,
		HedgeCancels:            r.HedgeCancels,
		HedgeDrops:              r.HedgeDrops,
		HedgeWastedSeconds:      r.HedgeWastedSeconds,
		BusySeconds:             r.BusySeconds,

		Queue:   stats(r.Queue),
		Service: stats(r.Service),
		Latency: stats(r.Latency),
		TTFT:    stats(r.TTFT),
		TPOT:    stats(r.TPOT),

		TokensIn:     r.TokensIn,
		TokensPadded: r.TokensPadded,
		TokensOut:    r.TokensOut,

		EnergyJ:           r.EnergyJ,
		EnergyPerRequestJ: r.EnergyPerRequestJ,

		KVPeakBytes:       r.KVPeakBytes,
		KVCapacityBytes:   r.KVCapacityBytes,
		KVMeanBytes:       r.KVMeanBytes,
		KVMeanUtilization: r.KVMeanUtilization,

		DistinctForwardSims: r.DistinctForwardSims,
	}
	for _, ir := range r.Instances {
		out.Instances = append(out.Instances, ClusterInstanceReport{
			ID:                 ir.ID,
			Design:             ir.Design,
			Replicas:           ir.Replicas,
			UpSeconds:          ir.UpAt,
			ActiveSeconds:      ir.ActiveAt,
			DrainSeconds:       ir.DrainAt,
			DownSeconds:        ir.DownAt,
			Domain:             ir.Domain,
			Requests:           ir.Requests,
			Completed:          ir.Completed,
			Shed:               ir.Shed,
			Canceled:           ir.Canceled,
			Displaced:          ir.Displaced,
			Crashes:            ir.Crashes,
			Degraded:           ir.Degraded,
			StragglerWindows:   ir.StragglerWindows,
			UnavailableSeconds: ir.UnavailableSeconds,
			BusySeconds:        ir.BusySeconds,
			Batches:            ir.Batches,
			DecodeSteps:        ir.DecodeSteps,
			MeanBatchSize:      ir.MeanBatchSize,
			Utilization:        ir.Utilization,
			PIMShare:           ir.PIMShare,
			TokensIn:           ir.TokensIn,
			TokensPadded:       ir.TokensPadded,
			TokensOut:          ir.TokensOut,
			EnergyJ:            ir.EnergyJ,
			KVPeakBytes:        ir.KVPeakBytes,
			KVCapacityBytes:    ir.KVCapacityBytes,
			KVMeanBytes:        ir.KVMeanBytes,
			KVMeanUtilization:  ir.KVMeanUtilization,
		})
	}
	for _, cr := range r.Classes {
		out.Classes = append(out.Classes, ClusterClassReport{
			Name:       cr.Name,
			RatePerSec: cr.RatePerSec,
			Offered:    cr.Offered,
			Admitted:   cr.Admitted,
			Rejected:   cr.Rejected,
			Completed:  cr.Completed,

			Good:             cr.Good,
			GoodputPerSec:    cr.GoodputPerSec,
			DeadlineMisses:   cr.DeadlineMisses,
			Shed:             cr.Shed,
			Retries:          cr.Retries,
			DeadlineSeconds:  cr.DeadlineSeconds,
			DeadlineMissRate: cr.DeadlineMissRate,

			Latency:       stats(cr.Latency),
			TTFT:          stats(cr.TTFT),
			TPOT:          stats(cr.TPOT),
			TTFTp99SLO:    cr.TTFTp99SLO,
			LatencyP99SLO: cr.LatencyP99SLO,
			TPOTp99SLO:    cr.TPOTp99SLO,
			SLOMet:        cr.SLOMet,
		})
	}
	for _, ev := range r.Timeline {
		out.Timeline = append(out.Timeline, ClusterTimelineEvent{
			Seconds: ev.T, Kind: ev.Kind, Action: ev.Action,
			Instance: ev.Instance, Replica: ev.Replica, Active: ev.Active,
			P99: ev.P99, Samples: ev.Samples, RecoverSeconds: ev.RecoverSeconds,
			Domain: ev.Domain,
		})
	}
	return out
}

// designVariants converts a public design list (used by experiment
// helpers and the CLIs).
func designVariants(ds []Design) []kernels.Variant {
	vs := make([]kernels.Variant, len(ds))
	for i, d := range ds {
		vs[i] = d.variant()
	}
	return vs
}
