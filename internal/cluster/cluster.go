package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
	"github.com/ais-snu/localut/internal/workload"
)

// ClassConfig is one SLO class: an independent open-loop request
// population with its own arrival rate, length distributions, admission
// budget and latency objectives. Zero length/decode fields inherit the
// Base config's values.
type ClassConfig struct {
	Name       string
	RatePerSec float64

	// AdmitRatePerSec/AdmitBurst parameterize the class's token bucket
	// when the cluster admission policy is TokenBucket (defaults: the
	// class rate, and one second of it, at least 1).
	AdmitRatePerSec float64
	AdmitBurst      float64

	// Prompt-length distribution overrides (0 = Base values).
	MinTokens, MaxTokens int
	MeanTokens           float64

	// Decode-length overrides (0 = Base values). OutTokens is ignored
	// when OutTokensMean is set, as in serve.Config.
	OutTokens     int
	OutTokensMean float64
	OutTokensMax  int

	// SLO targets for per-class reporting (0 = not tracked): p99
	// time-to-first-token, p99 total latency, p99 time-per-output-token.
	TTFTp99SLO    float64
	LatencyP99SLO float64
	TPOTp99SLO    float64

	// DeadlineSeconds is the class's completion deadline, measured from
	// arrival; work that cannot finish in time is shed with accounting and
	// the report separates goodput (deadline-met completions) from raw
	// throughput (0 = inherit Config.DeadlineSeconds).
	DeadlineSeconds float64

	// HedgeDelaySeconds overrides Config.Hedge.DelaySeconds for this class
	// when hedging is enabled (0 = inherit the fleet default).
	HedgeDelaySeconds float64
}

// validate rejects nonsensical class fields early — before inheritance
// against the base template resolves the zero values — and is the one place
// they are checked. Every float check is written so that NaN fails it; +Inf
// is a valid bound, deadline, delay or SLO (never reached), but not a mean
// output length.
func (c ClassConfig) validate(idx int) error {
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("class%d", idx)
	}
	switch {
	case c.RatePerSec <= 0:
		return fmt.Errorf("cluster: class %q rate %g must be positive", name, c.RatePerSec)
	case c.MinTokens < 0 || c.MaxTokens < 0:
		return fmt.Errorf("cluster: class %q has a negative length distribution", name)
	case c.MinTokens > 0 && c.MaxTokens > 0 && c.MinTokens > c.MaxTokens:
		return fmt.Errorf("cluster: class %q length bounds inverted (min %d > max %d)",
			name, c.MinTokens, c.MaxTokens)
	case c.OutTokens < 0 || c.OutTokensMax < 0:
		return fmt.Errorf("cluster: class %q has negative decode settings", name)
	case !(c.OutTokensMean == 0 || c.OutTokensMean >= 1) || math.IsInf(c.OutTokensMean, 1):
		return fmt.Errorf("cluster: class %q OutTokensMean %g must be 0 or a finite count of at least 1 token",
			name, c.OutTokensMean)
	}
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"MeanTokens", c.MeanTokens},
		{"AdmitRatePerSec", c.AdmitRatePerSec}, {"AdmitBurst", c.AdmitBurst},
		{"TTFTp99SLO", c.TTFTp99SLO}, {"LatencyP99SLO", c.LatencyP99SLO}, {"TPOTp99SLO", c.TPOTp99SLO},
		{"DeadlineSeconds", c.DeadlineSeconds}, {"HedgeDelaySeconds", c.HedgeDelaySeconds},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("cluster: class %q %s %g must not be negative or NaN", name, f.field, f.v)
		}
	}
	return nil
}

// Config describes one cluster simulation: a fleet of appliances built
// from a per-instance template, fronted by a router, admission control
// and (optionally) an autoscaler, serving per-class traffic populations.
type Config struct {
	// Base is the per-instance template (model, design, engine, replicas,
	// batching, default length distributions). Its arrival-source fields
	// are ignored: traffic is cluster-level.
	Base serve.Config

	// Instances is the initial fleet size (default 2).
	Instances int
	// Designs optionally makes the fleet heterogeneous: instance i runs
	// design Designs[i % len(Designs)] instead of Base.Variant. The cycle
	// also covers autoscaler-launched instances.
	Designs []kernels.Variant

	Router    RouterPolicy
	Admission AdmissionPolicy

	// Classes lists the traffic populations. Empty Classes with a
	// positive RatePerSec is shorthand for one "default" class.
	Classes    []ClassConfig
	RatePerSec float64

	// DurationSeconds is the arrival window (default 60); admitted
	// requests drain afterwards.
	DurationSeconds float64
	// Seed drives every sampler (default: Base.Seed, then 1).
	Seed int64

	Autoscaler AutoscalerConfig

	// Faults injects deterministic instance failures (crashes and
	// degraded-mode replica losses) with modeled recovery.
	Faults FaultConfig
	// Domains injects correlated outages: every member of a failure
	// domain crashes at once under a shared repair window.
	Domains DomainConfig
	// Stragglers injects gray failures: seeded slowdown windows on
	// members that stay routable.
	Stragglers StragglerConfig
	// Hedge duplicates slow requests onto a second member after a delay;
	// first token wins, the loser is cancelled with a pro-rata refund.
	Hedge HedgeConfig
	// Retry governs re-service of work lost to faults.
	Retry RetryConfig
	// Audit runs the conservation auditor after the drain and turns any
	// violated invariant into a Run error. Tests keep it on; localut-cluster
	// exposes it behind -audit.
	Audit bool
	// DeadlineSeconds is the default completion deadline for classes that
	// don't set their own (0 = no deadline).
	DeadlineSeconds float64

	// Recorder receives request-lifecycle spans and fleet instants
	// (crash/repair/scale/KV events); Metrics samples fleet gauges on a
	// fixed simulated-time interval. Both are nil by default; a nil hook
	// costs one nil check. The caller owns export after Run.
	Recorder *obs.Recorder
	Metrics  *obs.Metrics
}

// withDefaults fills and validates the cluster-level fields; Base is
// normalized separately via serve.Config.NormalizeInstance.
func (c Config) withDefaults() (Config, error) {
	if c.Instances == 0 {
		c.Instances = 2
	}
	if c.DurationSeconds == 0 {
		c.DurationSeconds = 60
	}
	if c.Seed == 0 {
		c.Seed = c.Base.Seed
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Classes) == 0 {
		if c.RatePerSec <= 0 {
			return c, fmt.Errorf("cluster: no traffic (set RatePerSec or Classes)")
		}
		c.Classes = []ClassConfig{{Name: "default", RatePerSec: c.RatePerSec}}
	}
	if c.Instances < 1 {
		return c, fmt.Errorf("cluster: fleet size %d must be at least 1", c.Instances)
	}
	if !positiveFinite(c.DurationSeconds) {
		return c, fmt.Errorf("cluster: DurationSeconds %g must be a positive finite number", c.DurationSeconds)
	}
	if !(c.DeadlineSeconds >= 0) {
		return c, fmt.Errorf("cluster: DeadlineSeconds %g must not be negative or NaN", c.DeadlineSeconds)
	}
	for i, cc := range c.Classes {
		if err := cc.validate(i); err != nil {
			return c, err
		}
	}
	var err error
	if c.Autoscaler, err = c.Autoscaler.withDefaults(c.Instances); err != nil {
		return c, err
	}
	if c.Faults, err = c.Faults.withDefaults(c.Domains.Enabled); err != nil {
		return c, err
	}
	if c.Domains, err = c.Domains.withDefaults(); err != nil {
		return c, err
	}
	if c.Stragglers, err = c.Stragglers.withDefaults(); err != nil {
		return c, err
	}
	if c.Hedge, err = c.Hedge.withDefaults(); err != nil {
		return c, err
	}
	if c.Retry, err = c.Retry.withDefaults(); err != nil {
		return c, err
	}
	return c, nil
}

// faultsPossible reports whether any injection subsystem can empty the
// fleet, in which case unroutable requests park for retry instead of
// being a config error.
func (c *Config) faultsPossible() bool {
	return c.Faults.Enabled || c.Domains.Enabled
}

// member is one fleet slot: an instance plus its lifecycle state.
type member struct {
	inst  *serve.Instance
	state memberState

	upAt     float64 // creation time
	activeAt float64 // first routable time
	drainAt  float64 // drain-start time (draining/down only)
	downAt   float64 // retirement time (down only)

	retireScheduled bool

	// Fault state. lifeEpoch bumps on every lifecycle transition so
	// scheduled fault events recognize a member that left service first;
	// faultRNG is the member's own seeded failure stream (nil when fault
	// injection is off); crashAt/unavail track outage windows; repairAt is
	// the pending repair time while crashed, so an overlapping domain
	// outage can tell whether it extends the window.
	lifeEpoch int32
	faultRNG  *rand.Rand
	crashAt   float64
	repairAt  float64
	unavail   float64

	// Correlated/gray-failure state: the member's failure domain (-1 when
	// domains are off), its seeded straggler stream (nil when straggler
	// injection is off), and whether a slowdown window is open.
	domain           int
	stragRNG         *rand.Rand
	straggling       bool
	stragglerWindows int
}

type memberState int

const (
	stateWarming memberState = iota
	stateActive
	stateDraining
	stateDown
	// stateCrashed: fail-stopped by fault injection, repair pending. Like
	// stateDown the member is unroutable, but it returns to stateActive
	// when the repair event lands.
	stateCrashed
)

// Fleet-level event kinds (instance -1 on the shared serve.EventQueue);
// serve.CompletionPrefill (1) and serve.CompletionStep (2) share the
// namespace.
const (
	evArrival        = 0
	evScaleTick      = 3
	evInstanceUp     = 4
	evInstanceDown   = 5
	evInstanceFault  = 6
	evInstanceRepair = 7
	evReplicaRepair  = 8
	evRetry          = 9
	evDomainOutage   = 10
	evDomainRepair   = 11
	evStragglerStart = 12
	evStragglerEnd   = 13
	evHedge          = 14
)

// The event queue's ordered lanes (serve.EventQueue.PushOrdered): the two
// streams this loop creates already in time order. Arrivals come from one
// merged, sorted MultiArrival stream; a hedge timer is its arrival plus a
// per-class constant, so timers are sorted within a class and the queue
// sends the cross-class stragglers through its heap.
const (
	laneArrival = 0
	laneHedge   = 1
)

// classState is one class's samplers, admission bucket and aggregation.
type classState struct {
	cfg     ClassConfig
	lengths *workload.LengthSampler
	outLens *workload.LengthSampler // nil = fixed OutTokens
	bucket  *bucket                 // nil under AdmitAll

	deadline   float64 // resolved completion deadline (0 = none)
	hedgeDelay float64 // resolved hedge delay (0 = hedging off, as is +Inf)

	offered, admitted, rejected, completed int
	good, late, retries, shed              int

	tLat, ttft, tpot *trace.LogHistogram
}

// csim is the mutable state of one cluster run.
type csim struct {
	cfg     Config
	base    serve.Config // normalized instance template
	members []*member
	oracles map[kernels.Variant]*serve.Oracle
	rt      router

	// active lists the routable members in ID order and load files them by
	// outstanding count; setState rebuilds both at every lifecycle
	// transition, so routing never rescans the fleet.
	active []*member
	load   loadIndex
	events serve.EventQueue
	slab   serve.RequestSlab
	// queued and started are the buffers Crash and FailReplica hand the
	// displaced requests back in, reused across faults.
	queued, started []*serve.Request

	arrivals *workload.MultiArrival
	classes  []classState
	nextID   int

	// Cluster-wide latency populations, streamed into bounded-memory
	// histograms in event order. The autoscaler window stays a raw vector:
	// it resets every tick, so it is small by construction and its p99
	// must be exact for scaling decisions; it is fed only while the
	// autoscaler is enabled.
	qLat, sLat, tLat *trace.LogHistogram
	ttft, tpot       *trace.LogHistogram
	window           []float64 // autoscaler samples since the last tick
	makespan         float64

	offered, admitted, rejected, completed int

	// timeline is the fleet-state transition stream: scale, fault,
	// domain-outage and straggler events in event-loop order. requestEnd
	// is the simulated time of the latest hedge issue/win or KV shed —
	// per-request activity the timeline does not record but that can be
	// the last thing a run does, so the auditor's run end must cover it.
	timeline   []TimelineEvent
	requestEnd float64
	peak       int // peak routable-instance count

	// Reliability accounting (fault injection, deadlines, KV budgets).
	rematFull, rematReplica float64 // LUT re-materialization seconds
	good, late              int     // deadline-met / late completions
	retries                 int
	reprefillTokens         int64
	shed                    int
	shedExpired, shedKV     int
	shedQueueFull           int
	shedRetries             int
	crashes, degradedEvents int
	unavailableSeconds      float64
	recoverTimes            []float64

	// Correlated/gray-failure and hedging accounting.
	domains          []domainState
	domainOutages    int
	domainOverlaps   int // repairs extended by an overlapping outage
	stragglerWindows int
	hedges           int
	hedgeWins        int // hedged pairs the duplicate copy won
	hedgeCancels     int // losers cancelled on their instance
	hedgeDrops       int // copies retired without an instance-side cancel
	hedgeWaste       float64
}

// setState is the one lifecycle transition: it moves m to state st, bumps
// its life epoch so fault events scheduled against the old state die,
// rebuilds the routable list and the load index over it, and tracks the
// list's peak.
func (cs *csim) setState(m *member, st memberState) {
	m.state = st
	m.lifeEpoch++
	cs.active = cs.active[:0]
	cs.load.reset(len(cs.members))
	for _, o := range cs.members {
		if o.state == stateActive {
			cs.active = append(cs.active, o)
			cs.load.insert(o.inst.ID, o.inst.Outstanding())
		}
	}
	if len(cs.active) > cs.peak {
		cs.peak = len(cs.active)
	}
}

// dispatch starts m's idle replicas at now, schedules their completions
// and files m's outstanding count in the load index. It is the loop's only
// call of EventQueue.Dispatch and follows every Admit, PrefillDone and
// StepDone, so one re-file here covers all four ways those move the count
// (Dispatch itself sheds expired and KV-refused work).
func (cs *csim) dispatch(m *member, now float64) error {
	err := cs.events.Dispatch(m.inst, now)
	cs.load.file(m.inst.ID, m.inst.Outstanding())
	return err
}

// designFor cycles the heterogeneous-design list over instance IDs.
func (cs *csim) designFor(id int) kernels.Variant {
	if len(cs.cfg.Designs) == 0 {
		return cs.base.Variant
	}
	return cs.cfg.Designs[id%len(cs.cfg.Designs)]
}

// newMember builds instance id in the given lifecycle state, sharing the
// pricing oracle with every same-design member of the fleet.
func (cs *csim) newMember(id int, st memberState, now float64) (*member, error) {
	icfg := cs.base
	icfg.Variant = cs.designFor(id)
	o := cs.oracles[icfg.Variant]
	inst, err := serve.NewInstance(icfg, id, o)
	if err != nil {
		return nil, err
	}
	if o == nil {
		cs.oracles[icfg.Variant] = inst.Oracle()
	}
	inst.SetSlab(&cs.slab)
	inst.OnFirstToken = cs.onFirstToken
	inst.OnFinish = cs.onFinish
	// The closure pins the member's ID so instance-level sheds carry their
	// origin into the trace.
	inst.OnShed = func(r *serve.Request, now float64, reason serve.ShedReason) {
		cs.onInstanceShed(id, r, now, reason)
	}
	inst.SetRecorder(cs.cfg.Recorder)
	m := &member{inst: inst, state: st, upAt: now, domain: cs.domainOf(id)}
	if st == stateActive {
		m.activeAt = now
	}
	if cs.cfg.Faults.Enabled {
		m.faultRNG = chaosRand(cs.cfg.Seed, faultStream, id)
	}
	if cs.cfg.Stragglers.Enabled {
		m.stragRNG = chaosRand(cs.cfg.Seed, stragglerStream, id)
	}
	return m, nil
}

// onFirstToken aggregates a decode request's TTFT cluster-wide, per class
// and into the autoscaler window. The first token of either copy of a
// hedged pair settles the race (the loser is cancelled before it can
// produce one), so TTFT is recorded exactly once per logical request.
func (cs *csim) onFirstToken(r *serve.Request, now float64) {
	if r.Twin != nil {
		cs.resolveHedge(r, now)
	}
	t := now - r.Arrive
	cs.ttft.Add(t)
	cs.classes[r.Class].ttft.Add(t)
	if cs.cfg.Autoscaler.Enabled {
		cs.window = append(cs.window, t)
	}
}

// onFinish aggregates a completed request's latencies and releases the
// traffic layer's hold on it; prefill-only requests feed the autoscaler
// window here (their completion is their response start, which also
// settles a hedge race).
func (cs *csim) onFinish(r *serve.Request, now float64) {
	if r.Twin != nil {
		cs.resolveHedge(r, now)
	}
	cs.completed++
	c := &cs.classes[r.Class]
	c.completed++
	if r.Deadline == 0 || r.Finish <= r.Deadline {
		cs.good++
		c.good++
	} else {
		cs.late++
		c.late++
	}
	lat := r.Finish - r.Arrive
	cs.qLat.Add(r.Start - r.Arrive)
	cs.sLat.Add(r.Finish - r.Start)
	cs.tLat.Add(lat)
	c.tLat.Add(lat)
	if r.OutLen > 1 {
		tp := (r.Finish - r.FirstTok) / float64(r.OutLen-1)
		cs.tpot.Add(tp)
		c.tpot.Add(tp)
	}
	if r.OutLen == 0 && cs.cfg.Autoscaler.Enabled {
		cs.window = append(cs.window, lat)
	}
	if rec := cs.cfg.Recorder; rec.Sampled(r.ID) {
		rec.EndAsync(0, "req", r.ID, "request", now)
	}
	if now > cs.makespan {
		cs.makespan = now
	}
	cs.slab.Release(r, serve.HoldTraffic)
}

// fleetCounts tallies the lifecycle states.
func (cs *csim) fleetCounts() (active, warming, draining int) {
	for _, m := range cs.members {
		switch m.state {
		case stateActive:
			active++
		case stateWarming:
			warming++
		case stateDraining:
			draining++
		}
	}
	return active, warming, draining
}

// outstandingTotal sums admitted-but-unfinished requests fleet-wide.
func (cs *csim) outstandingTotal() int {
	total := 0
	for _, m := range cs.members {
		total += m.inst.Outstanding()
	}
	return total
}

// newRequest samples one request of the given class arriving at t. Under
// hedging it comes with the hold of the timer the arrival schedules after
// routing it, since routing can shed it at once.
func (cs *csim) newRequest(t float64, class int) *serve.Request {
	c := &cs.classes[class]
	tok := c.lengths.Next()
	out := c.cfg.OutTokens
	if c.outLens != nil {
		out = c.outLens.Next()
	}
	r := cs.slab.New(serve.Request{
		ID:     cs.nextID,
		Client: -1,
		Class:  class,
		Tokens: tok,
		Padded: serve.RoundUp(tok, cs.base.TokenQuantum),
		OutLen: out,
		Member: -1,
		Arrive: t,
	})
	if c.hedgeDelay > 0 {
		cs.slab.Hold(r, serve.HoldTimer)
	}
	if c.deadline > 0 {
		r.Deadline = t + c.deadline
	}
	cs.nextID++
	return r
}

// normalizeClass resolves a validated class's inherited fields against the
// base template and checks what only the base can tell: whether the model
// decodes.
func normalizeClass(c ClassConfig, base *serve.Config, idx int) (ClassConfig, error) {
	if c.Name == "" {
		c.Name = fmt.Sprintf("class%d", idx)
	}
	if c.MinTokens == 0 {
		c.MinTokens = base.MinTokens
	}
	if c.MaxTokens == 0 {
		c.MaxTokens = base.MaxTokens
	}
	if c.MeanTokens == 0 {
		c.MeanTokens = base.MeanTokens
	}
	if c.MeanTokens < float64(c.MinTokens) {
		c.MeanTokens = float64(c.MinTokens)
	}
	if c.MeanTokens > float64(c.MaxTokens) {
		c.MeanTokens = float64(c.MaxTokens)
	}
	if c.OutTokens == 0 && c.OutTokensMean == 0 {
		c.OutTokens = base.OutTokens
		c.OutTokensMean = base.OutTokensMean
		c.OutTokensMax = base.OutTokensMax
	}
	if c.OutTokensMean > 0 {
		if c.OutTokensMax == 0 {
			c.OutTokensMax = int(4 * c.OutTokensMean)
		}
		if c.OutTokensMean > float64(c.OutTokensMax) {
			c.OutTokensMean = float64(c.OutTokensMax)
		}
	}
	if (c.OutTokens > 0 || c.OutTokensMean > 0) && !base.Model.Decoder {
		return c, fmt.Errorf("cluster: class %q decodes on non-decoder model %s", c.Name, base.Model.Name)
	}
	if c.AdmitRatePerSec == 0 {
		c.AdmitRatePerSec = c.RatePerSec
	}
	if c.AdmitBurst == 0 {
		if c.AdmitBurst = c.AdmitRatePerSec; c.AdmitBurst < 1 {
			c.AdmitBurst = 1
		}
	}
	return c, nil
}

// Run executes the cluster simulation to completion: arrivals stop at the
// duration cutoff, every admitted request drains, and — with the
// autoscaler enabled — ticks continue while work remains so the fleet
// drains back toward its minimum.
func Run(cfg Config) (*Report, error) {
	cs, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return cs.run()
}

// newSim validates cfg and builds the run's initial state: classes and
// samplers, the initial fleet, and the first arrival, fault and tick events.
func newSim(cfg Config) (*csim, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	base, err := cfg.Base.NormalizeInstance()
	if err != nil {
		return nil, err
	}
	base.Seed = cfg.Seed
	cs := &csim{
		cfg: cfg, base: base, oracles: make(map[kernels.Variant]*serve.Oracle),
		qLat: trace.NewLogHistogram(), sLat: trace.NewLogHistogram(),
		tLat: trace.NewLogHistogram(),
		ttft: trace.NewLogHistogram(), tpot: trace.NewLogHistogram(),
	}
	if cs.rt, err = newRouter(cfg.Router); err != nil {
		return nil, err
	}
	cfg.Recorder.Process(0, "fleet")
	if cfg.Admission != AdmitAll && cfg.Admission != TokenBucket {
		return nil, fmt.Errorf("cluster: unknown admission policy %d", int(cfg.Admission))
	}

	// Classes: samplers are seeded per class so populations are
	// independent streams (adding a class never perturbs the others).
	rates := make([]float64, len(cfg.Classes))
	cs.classes = make([]classState, len(cfg.Classes))
	for i, cc := range cfg.Classes {
		cc, err := normalizeClass(cc, &base, i)
		if err != nil {
			return nil, err
		}
		st := classState{
			cfg: cc, deadline: cc.DeadlineSeconds,
			tLat: trace.NewLogHistogram(),
			ttft: trace.NewLogHistogram(),
			tpot: trace.NewLogHistogram(),
		}
		if st.deadline == 0 {
			st.deadline = cfg.DeadlineSeconds
		}
		if cfg.Hedge.Enabled {
			if st.hedgeDelay = cc.HedgeDelaySeconds; st.hedgeDelay == 0 {
				st.hedgeDelay = cfg.Hedge.DelaySeconds
			}
			// A timer that cannot fire is not scheduled and holds nothing.
			if math.IsInf(st.hedgeDelay, 1) {
				st.hedgeDelay = 0
			}
		}
		seed := cfg.Seed + int64(i)*1009
		if st.lengths, err = workload.NewLengthSampler(cc.MinTokens, cc.MaxTokens, cc.MeanTokens, seed+1); err != nil {
			return nil, fmt.Errorf("cluster: class %q: %w", cc.Name, err)
		}
		if cc.OutTokensMean > 0 {
			if st.outLens, err = workload.NewLengthSampler(1, cc.OutTokensMax, cc.OutTokensMean, seed+3); err != nil {
				return nil, fmt.Errorf("cluster: class %q: %w", cc.Name, err)
			}
		}
		if cfg.Admission == TokenBucket {
			st.bucket = newBucket(cc.AdmitRatePerSec, cc.AdmitBurst)
		}
		cs.classes[i] = st
		rates[i] = cc.RatePerSec
	}
	if cs.arrivals, err = workload.NewMultiArrival(rates, cfg.Seed); err != nil {
		return nil, err
	}

	// LUT re-materialization surcharge on recovery: the whole appliance's
	// LUT budget rewritten at the modeled bandwidth (one replica's share
	// for degraded-mode repairs). This is the capacity-computation
	// tradeoff's availability face: bigger tables recover slower. Domain
	// outages pay it too, at the fault plan's bandwidth, which withDefaults
	// fills and checks whenever either is enabled.
	if cfg.Faults.Enabled || cfg.Domains.Enabled {
		pcfg := &base.Engine.Cfg
		lutBytes := int64(pcfg.Ranks*pcfg.BanksPerRank) * pcfg.MRAMLUTBudget()
		cs.rematFull = float64(lutBytes) / (cfg.Faults.LUTRematGBps * 1e9)
		cs.rematReplica = cs.rematFull / float64(base.Replicas)
	}

	// The initial fleet is active at t=0.
	for i := 0; i < cfg.Instances; i++ {
		m, err := cs.newMember(i, stateActive, 0)
		if err != nil {
			return nil, err
		}
		cs.members = append(cs.members, m)
		cs.setState(m, stateActive)
	}
	for _, m := range cs.members {
		cs.scheduleFault(m, 0)
		cs.scheduleStraggler(m, 0)
	}
	cs.initDomains()

	// Seed the merged arrival stream and the autoscaler clock.
	if t, class := cs.arrivals.Next(); t <= cfg.DurationSeconds {
		cs.events.PushOrdered(laneArrival, &serve.Event{At: t, Inst: -1, Kind: evArrival, Arg: int32(class)})
	}
	if cfg.Autoscaler.Enabled {
		cs.events.Push(&serve.Event{At: cfg.Autoscaler.IntervalSeconds, Inst: -1, Kind: evScaleTick})
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Bind(cs.metricsCols(), cs.sampleMetrics)
	}
	return cs, nil
}

// run is the shared-clock event loop, then the report and the audit.
func (cs *csim) run() (*Report, error) {
	cfg := &cs.cfg
	for cs.events.Len() > 0 {
		ev := cs.events.Pop()
		now := ev.At
		// Metrics sample before the event applies: the pre-event state is
		// exactly the fleet's state at every boundary since the last event.
		cfg.Metrics.Advance(now)
		switch ev.Kind {
		case evArrival:
			cs.offered++
			c := &cs.classes[ev.Arg]
			c.offered++
			if c.bucket != nil && !c.bucket.admit(now) {
				cs.rejected++
				c.rejected++
				if rec := cfg.Recorder; rec.Sampled(cs.offered) {
					rec.Instant(0, 0, "reject", now, obs.Str("class", c.cfg.Name))
				}
			} else {
				r := cs.newRequest(now, int(ev.Arg))
				cs.admitted++
				c.admitted++
				if rec := cfg.Recorder; rec.Sampled(r.ID) {
					rec.BeginAsync(0, "req", r.ID, "request", now,
						obs.Str("class", c.cfg.Name),
						obs.Num("tokens", float64(r.Tokens)), obs.Num("out", float64(r.OutLen)))
				}
				if err := cs.route(r, now, false); err != nil {
					return nil, err
				}
				if d := c.hedgeDelay; d > 0 {
					cs.events.PushOrdered(laneHedge, &serve.Event{At: now + d, Inst: -1, Kind: evHedge, Req: r})
				}
			}
			if t, class := cs.arrivals.Next(); t <= cfg.DurationSeconds {
				cs.events.PushOrdered(laneArrival, &serve.Event{At: t, Inst: -1, Kind: evArrival, Arg: int32(class)})
			}
		case evRetry:
			// A parked copy whose hedge twin won has ended: nothing to route.
			r, live := ev.Req, ev.Req.HeldBy(serve.HoldTraffic)
			cs.slab.Release(r, serve.HoldRetry)
			if !live {
				break
			}
			if err := cs.route(r, now, ev.Flag); err != nil {
				return nil, err
			}
		case serve.CompletionPrefill, serve.CompletionStep:
			m, rep := cs.members[ev.Inst], int(ev.Arg)
			if int(ev.Epoch) != m.inst.ReplicaEpoch(rep) {
				break // the pass was vaporized by a crash or replica loss
			}
			if ev.Kind == serve.CompletionPrefill {
				// The epoch matched, so this is the replica's running pass
				// and its batch is the replica's in-flight buffer.
				m.inst.PrefillDone(rep, m.inst.Inflight(rep), now)
			} else {
				m.inst.StepDone(rep, now)
			}
			if err := cs.dispatch(m, now); err != nil {
				return nil, err
			}
			cs.maybeRetire(m, now)
		case evInstanceFault:
			cs.onFault(&ev, now)
		case evInstanceRepair:
			if err := cs.onRepair(&ev, now); err != nil {
				return nil, err
			}
		case evReplicaRepair:
			if err := cs.onReplicaRepair(&ev, now); err != nil {
				return nil, err
			}
		case evDomainOutage:
			cs.onDomainOutage(&ev, now)
		case evDomainRepair:
			cs.onDomainRepair(&ev, now)
		case evStragglerStart:
			cs.onStragglerStart(&ev, now)
		case evStragglerEnd:
			cs.onStragglerEnd(&ev, now)
		case evHedge:
			if err := cs.onHedgeTimer(&ev, now); err != nil {
				return nil, err
			}
		case evScaleTick:
			cs.scaleTick(now)
			// Ticks outlive the arrival window while work or excess fleet
			// remains, so the cluster always drains back to its minimum.
			active, warming, draining := cs.fleetCounts()
			if next := now + cfg.Autoscaler.IntervalSeconds; next <= cfg.DurationSeconds ||
				cs.outstandingTotal() > 0 || active+warming+draining > cfg.Autoscaler.MinInstances {
				cs.events.Push(&serve.Event{At: next, Inst: -1, Kind: evScaleTick})
			}
		case evInstanceUp:
			m := cs.members[ev.Inst]
			cs.setState(m, stateActive)
			m.activeAt = now
			cs.scheduleFault(m, now)
			cs.scheduleStraggler(m, now)
			cs.scaleEvent(now, "up-active", int(ev.Inst), len(cs.active))
		case evInstanceDown:
			m := cs.members[ev.Inst]
			cs.setState(m, stateDown)
			m.downAt = now
			cs.scaleEvent(now, "down", int(ev.Inst), len(cs.active))
		}
	}
	cfg.Metrics.Finish(cs.makespan)
	rep := cs.report()
	if cfg.Audit {
		if err := cs.auditRun(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// scaleEvent appends an autoscaler lifecycle entry to the unified
// timeline and mirrors it into the trace as a fleet-track instant.
func (cs *csim) scaleEvent(now float64, action string, inst, active int) {
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindScale, Action: action, Instance: inst, Replica: -1, Active: active,
	})
	cs.cfg.Recorder.Instant(0, 0, action, now,
		obs.Num("instance", float64(inst)), obs.Num("active", float64(active)))
}

// metricsCols names the fleet metrics columns: fleet size and summed
// queue/batch/KV gauges, then per-class cumulative admit/shed/good
// counters (rates are first differences over the sampling interval).
func (cs *csim) metricsCols() []string {
	cols := []string{"fleet_active", "fleet_total", "queue_depth", "live", "busy_replicas", "kv_bytes"}
	for i := range cs.classes {
		name := cs.classes[i].cfg.Name
		cols = append(cols, "admitted_"+name, "shed_"+name, "good_"+name)
	}
	return cols
}

// sampleMetrics reads the gauges metricsCols names from current state.
func (cs *csim) sampleMetrics(now float64) []float64 {
	active, warming, draining := cs.fleetCounts()
	queue, live, busy := 0, 0, 0
	var kv int64
	for _, m := range cs.members {
		if m.state == stateDown || m.state == stateCrashed {
			continue
		}
		queue += m.inst.QueueLen()
		live += m.inst.LiveCount()
		busy += m.inst.BusyReplicas()
		kv += m.inst.KVPinnedBytes()
	}
	vals := []float64{
		float64(active), float64(active + warming + draining),
		float64(queue), float64(live), float64(busy), float64(kv),
	}
	for i := range cs.classes {
		c := &cs.classes[i]
		vals = append(vals, float64(c.admitted), float64(c.shed), float64(c.good))
	}
	return vals
}
