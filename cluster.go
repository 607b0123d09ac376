package localut

import (
	"github.com/ais-snu/localut/internal/cluster"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/serve"
)

// The fleet types below are aliases: each is declared once, with its JSON
// schema and field documentation, in internal/cluster (KVPolicy in
// internal/serve), and exported here under its public name. Only
// ClusterConfig and ClusterDeadlines are declared in this package.

// RouterPolicy selects how a cluster spreads requests over its fleet.
type RouterPolicy = cluster.RouterPolicy

const (
	// RouteRoundRobin cycles through the routable instances.
	RouteRoundRobin = cluster.RoundRobin
	// RouteLeastOutstanding picks the instance with the fewest
	// admitted-but-unfinished requests.
	RouteLeastOutstanding = cluster.LeastOutstanding
	// RouteWeightedFreeKV picks the instance with the most free KV-cache
	// capacity — the capacity-axis-aware router for decode-heavy fleets.
	RouteWeightedFreeKV = cluster.WeightedFreeKV
	// RouteShapeAffinity hashes the padded request shape over the fleet,
	// concentrating same-shape requests for uniform batches.
	RouteShapeAffinity = cluster.ShapeAffinity
)

// ParseRouterPolicy parses a router-policy name, case-insensitively.
func ParseRouterPolicy(s string) (RouterPolicy, error) { return cluster.ParseRouterPolicy(s) }

// AdmissionPolicy selects the cluster's admission controller.
type AdmissionPolicy = cluster.AdmissionPolicy

const (
	// AdmitAll admits every arrival.
	AdmitAll = cluster.AdmitAll
	// AdmitTokenBucket rate-limits each SLO class with its own token
	// bucket (sustained rate + burst depth).
	AdmitTokenBucket = cluster.TokenBucket
)

// ParseAdmissionPolicy parses an admission-policy name, case-insensitively.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	return cluster.ParseAdmissionPolicy(s)
}

// KVPolicy selects how each appliance treats its per-replica KV-cache
// capacity: as a passive gauge (reported, never enforced), as a stall
// budget (prefill admission waits until decode retirements free KV), or
// as a shed budget (requests that don't fit are dropped with accounting).
type KVPolicy = serve.KVPolicy

const (
	// KVGauge reports KV peak/capacity but never enforces the budget.
	KVGauge = serve.KVGauge
	// KVStall enforces the budget by stalling prefill admission.
	KVStall = serve.KVStall
	// KVShed enforces the budget by shedding what does not fit.
	KVShed = serve.KVShed
)

// ParseKVPolicy parses a KV-policy name, case-insensitively.
func ParseKVPolicy(s string) (KVPolicy, error) { return serve.ParseKVPolicy(s) }

// The fault, traffic and autoscaler plans of a ClusterConfig.
type (
	// ClusterFaults is the deterministic fail-stop plan: seeded crashes
	// and degraded-mode replica losses, repaired after an exponential
	// delay plus a modeled LUT re-materialization latency.
	ClusterFaults = cluster.FaultConfig
	// ClusterDomains is the correlated-failure plan: every active member
	// of a failure domain fail-stops at once and shares one repair window.
	ClusterDomains = cluster.DomainConfig
	// ClusterStragglers is the gray-failure plan: seeded slowdown windows
	// on members that keep serving and stay routable.
	ClusterStragglers = cluster.StragglerConfig
	// ClusterHedge duplicates requests still waiting for their first
	// token onto a second member; first token wins.
	ClusterHedge = cluster.HedgeConfig
	// ClusterRetry governs re-service of work lost to faults: capped
	// exponential backoff with a bounded number of attempts.
	ClusterRetry = cluster.RetryConfig
	// ClusterClass is one SLO class of cluster traffic: an independent
	// open-loop Poisson population with its own rate, length
	// distributions, admission budget and latency objectives.
	ClusterClass = cluster.ClassConfig
	// ClusterAutoscaler parameterizes the reactive autoscaler.
	ClusterAutoscaler = cluster.AutoscalerConfig
)

// ClusterDeadlines gives requests completion deadlines so the report can
// separate goodput (deadline-met completions per second) from raw
// throughput. Work that cannot finish in time is shed with accounting.
type ClusterDeadlines struct {
	// DefaultSeconds applies to every class that does not set its own
	// DeadlineSeconds (0 = no deadline).
	DefaultSeconds float64
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

// The sections of a cluster report.
type (
	// ClusterReport is the outcome of one cluster simulation. Like
	// ServeReport it is bit-reproducible: the same seed, config and
	// parallelism-agnostic engine yield a byte-identical JSON encoding on
	// every run, including mid-run scale-up/scale-down.
	ClusterReport = cluster.Report
	// ClusterInstanceReport summarizes one fleet member.
	ClusterInstanceReport = cluster.InstanceReport
	// ClusterClassReport summarizes one SLO class.
	ClusterClassReport = cluster.ClassReport
	// ClusterTimelineEvent is one entry of the fleet timeline, the ordered
	// fleet-state transitions: autoscaler actions, fault injection and
	// recovery, correlated outages and gray-failure windows. Per-request
	// hedge and KV-shed detail is in the report counters and the trace.
	ClusterTimelineEvent = cluster.TimelineEvent
)

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
	model, format, err := modelAndFormat(cfg.Model, cfg.Format)
	if err != nil {
		return nil, err
	}
	designs := make([]kernels.Variant, len(cfg.Designs))
	for i, d := range cfg.Designs {
		designs[i] = d.variant()
	}
	rec, met, err := cfg.Obs.build()
	if err != nil {
		return nil, err
	}
	rep, err := cluster.Run(cluster.Config{
		Base: serve.Config{
			Model:   model,
			Fmt:     format,
			Variant: cfg.Design.variant(),

			Engine: s.engine,
			Energy: s.energy,

			Replicas: cfg.Replicas,

			MaxBatch:  cfg.MaxBatch,
			Scheduler: cfg.Scheduler,

			MinTokens:    cfg.MinTokens,
			MaxTokens:    cfg.MaxTokens,
			MeanTokens:   cfg.MeanTokens,
			TokenQuantum: cfg.TokenQuantum,

			OutTokens:     cfg.OutTokens,
			OutTokensMean: cfg.OutTokensMean,
			OutTokensMax:  cfg.OutTokensMax,

			MaxQueue: cfg.MaxQueue,
			KVPolicy: cfg.KVPolicy,
		},
		Instances: cfg.Instances,
		Designs:   designs,
		Router:    cfg.Router,
		Admission: cfg.Admission,

		Classes:         cfg.Classes,
		RatePerSec:      cfg.RatePerSec,
		DurationSeconds: cfg.DurationSeconds,
		Seed:            seed,

		Autoscaler: cfg.Autoscaler,
		Faults:     cfg.Faults,
		Domains:    cfg.Domains,
		Stragglers: cfg.Stragglers,
		Hedge:      cfg.Hedge,
		Retry:      cfg.Retry,

		Audit:           cfg.Audit,
		DeadlineSeconds: cfg.Deadlines.DefaultSeconds,

		Recorder: rec,
		Metrics:  met,
	})
	if err != nil {
		rec.Abandon()
		return nil, err
	}
	if err := cfg.Obs.export(rec, met); err != nil {
		return nil, err
	}
	return rep, nil
}
