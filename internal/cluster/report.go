package cluster

import (
	"github.com/ais-snu/localut/internal/serve"
)

// InstanceReport summarizes one fleet member's lifecycle and service
// (localut.ClusterInstanceReport).
type InstanceReport struct {
	ID       int    `json:"id"`
	Design   string `json:"design"`
	Replicas int    `json:"replicas"`

	// Lifecycle timestamps in simulated seconds: creation, first routable
	// time, drain start and retirement. DownSeconds is 0 for instances
	// still active at the end of the run; ActiveSeconds is 0 for the
	// initial fleet.
	UpSeconds     float64 `json:"up_s"`
	ActiveSeconds float64 `json:"active_s"`
	DrainSeconds  float64 `json:"drain_s,omitempty"`
	DownSeconds   float64 `json:"down_s,omitempty"`

	// Domain is the member's failure domain under correlated fault
	// injection (-1 when failure domains are off).
	Domain int `json:"domain"`

	Requests  int `json:"requests"` // admitted (routed) requests
	Completed int `json:"completed"`
	Shed      int `json:"shed,omitempty"` // dropped by the instance (deadline expiry, KV budget)
	// Canceled counts hedge losers cancelled on this instance; Displaced
	// counts requests handed back to the cluster by a crash or replica
	// loss. Both close the instance's conservation ledger:
	// Requests == Completed + Shed + Canceled + Displaced after the drain.
	Canceled    int `json:"canceled,omitempty"`
	Displaced   int `json:"displaced,omitempty"`
	Batches     int `json:"batches"`
	DecodeSteps int `json:"decode_steps"`

	// Fault history: full crashes, degraded-mode replica losses,
	// gray-failure slowdown windows opened on this member, and total
	// crash-to-repair outage time.
	Crashes            int     `json:"crashes,omitempty"`
	Degraded           int     `json:"degraded,omitempty"`
	StragglerWindows   int     `json:"straggler_windows,omitempty"`
	UnavailableSeconds float64 `json:"unavailable_s,omitempty"`

	// BusySeconds sums per-replica service time, with hedge-cancel refunds
	// applied — the denominator for hedge-waste fractions.
	BusySeconds float64 `json:"busy_s"`

	MeanBatchSize float64 `json:"mean_batch_size"`
	// Utilization is replica-seconds busy over replica-seconds routable
	// (active until retirement or end of run).
	Utilization float64 `json:"utilization"`
	// PIMShare is the fraction of busy time spent in PIM kernels.
	PIMShare float64 `json:"pim_share"`

	TokensIn     int64 `json:"tokens_in"`
	TokensPadded int64 `json:"tokens_padded"`
	TokensOut    int64 `json:"tokens_out"`

	EnergyJ         float64 `json:"energy_j"`
	KVPeakBytes     int64   `json:"kv_peak_bytes"`
	KVCapacityBytes int64   `json:"kv_capacity_bytes"`
	// KVMeanBytes is the time-weighted mean KV footprint per replica over
	// the member's routable life; KVMeanUtilization is its share of
	// capacity. The peak alone hides sustained pressure.
	KVMeanBytes       float64 `json:"kv_mean_bytes"`
	KVMeanUtilization float64 `json:"kv_mean_utilization"`
}

// ClassReport summarizes one SLO class's population
// (localut.ClusterClassReport).
type ClassReport struct {
	Name       string  `json:"name"`
	RatePerSec float64 `json:"rate_per_s"`

	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	// Reliability accounting. Good counts completions that met their
	// deadline (all completions when the class has none); DeadlineMisses
	// counts late completions; Shed counts admitted requests dropped
	// (expired, KV pressure, full queues, retry budget); Retries counts
	// re-admissions of fault-displaced work. DeadlineMissRate is the
	// fraction of admitted requests that did not complete in time — late,
	// shed or lost.
	Good             int     `json:"good"`
	GoodputPerSec    float64 `json:"goodput_per_s"`
	DeadlineMisses   int     `json:"deadline_misses"`
	Shed             int     `json:"shed"`
	Retries          int     `json:"retries"`
	DeadlineSeconds  float64 `json:"deadline_s,omitempty"`
	DeadlineMissRate float64 `json:"deadline_miss_rate"`

	Latency serve.Stats `json:"latency"`
	TTFT    serve.Stats `json:"ttft"`
	TPOT    serve.Stats `json:"tpot"`

	// p99 SLO targets in seconds echoed from the config (0 = not tracked)
	// and whether the class met every tracked one.
	TTFTp99SLO    float64 `json:"ttft_p99_slo_s,omitempty"`
	LatencyP99SLO float64 `json:"latency_p99_slo_s,omitempty"`
	TPOTp99SLO    float64 `json:"tpot_p99_slo_s,omitempty"`
	SLOMet        bool    `json:"slo_met"`
}

// Report is the cluster-run summary (localut.ClusterReport), so the field
// names, order and tags here are the public JSON schema. Built from
// samples appended in event order, it is a pure function of the
// configuration and seed: the same seed, config and parallelism-agnostic
// engine yield a byte-identical JSON encoding on every run, including
// mid-run scale-up/scale-down.
type Report struct {
	Model     string `json:"model"`
	Format    string `json:"format"`
	Router    string `json:"router"`
	Admission string `json:"admission"`

	InstancesInitial int `json:"instances_initial"`
	InstancesPeak    int `json:"instances_peak"`
	InstancesFinal   int `json:"instances_final"` // active at end of run

	Offered   int `json:"offered"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	DurationSeconds float64 `json:"duration_s"`
	MakespanSeconds float64 `json:"makespan_s"`

	OfferedPerSec    float64 `json:"offered_per_s"`
	ThroughputPerSec float64 `json:"throughput_per_s"` // completed / makespan
	TokensPerSec     float64 `json:"tokens_per_s"`     // output (or padded prefill) tokens / makespan

	// Reliability rows. Goodput separates useful work from raw throughput:
	// Good counts completions that met their deadline, GoodputPerSec is
	// Good over the makespan. Shed decomposes into deadline expiry, KV
	// budget, full queues and exhausted retry budgets; after the drain
	// Admitted == Completed + Shed. ReprefillTokens are prompt tokens
	// re-prefilled by retried work whose KV state a fault destroyed.
	Good            int     `json:"good"`
	GoodputPerSec   float64 `json:"goodput_per_s"`
	DeadlineMisses  int     `json:"deadline_misses"` // late completions
	Retries         int     `json:"retries"`
	ReprefillTokens int64   `json:"reprefill_tokens"`
	Shed            int     `json:"shed"`
	ShedExpired     int     `json:"shed_expired"`
	ShedKV          int     `json:"shed_kv"`
	ShedQueueFull   int     `json:"shed_queue_full"`
	ShedRetries     int     `json:"shed_retries"`

	// Fault plan outcome: crash and degraded-mode counts, summed outage
	// time across instances, the distribution of crash-to-repair times,
	// and the modeled LUT re-materialization surcharge each full recovery
	// paid (zero when fault injection is off).
	Crashes            int         `json:"crashes"`
	DegradedEvents     int         `json:"degraded_events"`
	UnavailableSeconds float64     `json:"unavailable_s"`
	TimeToRecover      serve.Stats `json:"time_to_recover"`
	LUTRematSeconds    float64     `json:"lut_remat_s"`

	// Correlated-failure outcome: DomainOutages counts domain-wide blast
	// events; DomainOverlapExtensions counts member repairs that a second
	// outage extended while the member was already down (the overlap is
	// merged into one window, never double-counted in UnavailableSeconds).
	DomainOutages           int `json:"domain_outages,omitempty"`
	DomainOverlapExtensions int `json:"domain_overlap_extensions,omitempty"`

	// StragglerWindows counts gray-failure slowdown windows opened across
	// the fleet. The hedging rows balance exactly: every issued hedge
	// resolves as one cancel (the loser was still on an instance) or one
	// drop (it was parked or displaced); wins count the pairs the
	// duplicate copy won. HedgeWastedSeconds is the busy time spent on
	// cancelled losers before their refund — compare against BusySeconds
	// for the waste fraction.
	StragglerWindows   int     `json:"straggler_windows,omitempty"`
	HedgesIssued       int     `json:"hedges_issued,omitempty"`
	HedgeWins          int     `json:"hedge_wins,omitempty"`
	HedgeCancels       int     `json:"hedge_cancels,omitempty"`
	HedgeDrops         int     `json:"hedge_drops,omitempty"`
	HedgeWastedSeconds float64 `json:"hedge_waste_s,omitempty"`

	// BusySeconds sums per-replica service time across the fleet, refunds
	// applied.
	BusySeconds float64 `json:"busy_s"`

	Queue   serve.Stats `json:"queue"`
	Service serve.Stats `json:"service"`
	Latency serve.Stats `json:"latency"`
	TTFT    serve.Stats `json:"ttft"`
	TPOT    serve.Stats `json:"tpot"`

	TokensIn     int64 `json:"tokens_in"`
	TokensPadded int64 `json:"tokens_padded"`
	TokensOut    int64 `json:"tokens_out"`

	EnergyJ           float64 `json:"energy_j"`
	EnergyPerRequestJ float64 `json:"energy_per_request_j"`

	// KVPeakBytes/KVCapacityBytes are the fleet-wide maxima over members.
	KVPeakBytes     int64 `json:"kv_peak_bytes"`
	KVCapacityBytes int64 `json:"kv_capacity_bytes"`
	// Fleet KV pressure, time-weighted across member lifetimes: mean bytes
	// pinned per replica and its share of per-replica capacity.
	KVMeanBytes       float64 `json:"kv_mean_bytes"`
	KVMeanUtilization float64 `json:"kv_mean_utilization"`

	// DistinctForwardSims counts the unique forward-pass shapes priced
	// across the fleet's shared oracles — the memoization that makes
	// million-request fleets cheap.
	DistinctForwardSims int `json:"distinct_forward_sims"`

	Instances []InstanceReport `json:"instances"`
	Classes   []ClassReport    `json:"classes"`

	// Timeline is the ordered stream of fleet-state transitions:
	// autoscaler actions, fault injections/repairs, domain outages and
	// straggler windows in event order (empty when no subsystem that
	// writes to it is enabled). Per-request hedge and KV-shed detail is in
	// the counters above and in the obs trace.
	Timeline []TimelineEvent `json:"timeline,omitempty"`
}

func (cs *csim) report() *Report {
	rep := &Report{
		Model:            cs.base.Model.Name,
		Format:           cs.base.Fmt.Name(),
		Router:           cs.cfg.Router.String(),
		Admission:        cs.cfg.Admission.String(),
		InstancesInitial: cs.cfg.Instances,
		InstancesPeak:    cs.peak,
		Offered:          cs.offered,
		Admitted:         cs.admitted,
		Rejected:         cs.rejected,
		Completed:        cs.completed,
		DurationSeconds:  cs.cfg.DurationSeconds,
		MakespanSeconds:  cs.makespan,
		Queue:            serve.HistStats(cs.qLat),
		Service:          serve.HistStats(cs.sLat),
		Latency:          serve.HistStats(cs.tLat),
		TTFT:             serve.HistStats(cs.ttft),
		TPOT:             serve.HistStats(cs.tpot),
		Timeline:         cs.timeline,

		Good:               cs.good,
		DeadlineMisses:     cs.late,
		Retries:            cs.retries,
		ReprefillTokens:    cs.reprefillTokens,
		Shed:               cs.shed,
		ShedExpired:        cs.shedExpired,
		ShedKV:             cs.shedKV,
		ShedQueueFull:      cs.shedQueueFull,
		ShedRetries:        cs.shedRetries,
		Crashes:            cs.crashes,
		DegradedEvents:     cs.degradedEvents,
		UnavailableSeconds: cs.unavailableSeconds,
		TimeToRecover:      serve.StatsOf(cs.recoverTimes),
		LUTRematSeconds:    cs.rematFull,

		DomainOutages:           cs.domainOutages,
		DomainOverlapExtensions: cs.domainOverlaps,
		StragglerWindows:        cs.stragglerWindows,
		HedgesIssued:            cs.hedges,
		HedgeWins:               cs.hedgeWins,
		HedgeCancels:            cs.hedgeCancels,
		HedgeDrops:              cs.hedgeDrops,
		HedgeWastedSeconds:      cs.hedgeWaste,
	}
	rep.OfferedPerSec = float64(cs.offered) / cs.cfg.DurationSeconds
	if cs.makespan > 0 {
		rep.ThroughputPerSec = float64(cs.completed) / cs.makespan
		rep.GoodputPerSec = float64(cs.good) / cs.makespan
	}

	var kvByteSecSum, kvReplicaSecSum float64
	for _, m := range cs.members {
		st := m.inst.Stats()
		ir := InstanceReport{
			ID:                 m.inst.ID,
			Domain:             m.domain,
			UnavailableSeconds: m.unavail,
			Design:             m.inst.Cfg.Variant.String(),
			Replicas:           m.inst.Cfg.Replicas,
			UpSeconds:          m.upAt,
			ActiveSeconds:      m.activeAt,
			DrainSeconds:       m.drainAt,
			DownSeconds:        m.downAt,
			Requests:           st.Admitted,
			Completed:          st.Finished,
			Shed:               st.Shed,
			Canceled:           st.Canceled,
			Displaced:          st.Displaced,
			Crashes:            st.Crashes,
			Degraded:           st.Degraded,
			StragglerWindows:   m.stragglerWindows,
			Batches:            st.Batches,
			DecodeSteps:        st.DecodeSteps,
			TokensIn:           st.TokensIn,
			TokensPadded:       st.TokensPadded,
			TokensOut:          st.TokensOut,
			EnergyJ:            st.EnergyJ,
			KVPeakBytes:        st.KVPeakBytes,
			KVCapacityBytes:    st.KVCapacityBytes,
		}
		if st.Batches > 0 {
			ir.MeanBatchSize = float64(st.BatchRequests) / float64(st.Batches)
		}
		end := ir.DownSeconds
		if m.state != stateDown {
			end = cs.makespan
		}
		var busyTotal float64
		for _, b := range st.BusySeconds {
			busyTotal += b
		}
		ir.BusySeconds = busyTotal
		rep.BusySeconds += busyTotal
		if span := end - ir.ActiveSeconds; span > 0 && ir.Replicas > 0 {
			ir.Utilization = busyTotal / (span * float64(ir.Replicas))
		}
		if busyTotal > 0 {
			ir.PIMShare = st.PIMBusySeconds / busyTotal
		}
		kvByteSec := m.inst.KVByteSeconds(end)
		if span := end - ir.UpSeconds; span > 0 && ir.Replicas > 0 {
			ir.KVMeanBytes = kvByteSec / (span * float64(ir.Replicas))
			if st.KVCapacityBytes > 0 {
				ir.KVMeanUtilization = ir.KVMeanBytes / float64(st.KVCapacityBytes)
			}
			kvByteSecSum += kvByteSec
			kvReplicaSecSum += span * float64(ir.Replicas)
		}
		rep.TokensIn += st.TokensIn
		rep.TokensPadded += st.TokensPadded
		rep.TokensOut += st.TokensOut
		rep.EnergyJ += st.EnergyJ
		if st.KVPeakBytes > rep.KVPeakBytes {
			rep.KVPeakBytes = st.KVPeakBytes
		}
		if st.KVCapacityBytes > rep.KVCapacityBytes {
			rep.KVCapacityBytes = st.KVCapacityBytes
		}
		if m.state == stateActive {
			rep.InstancesFinal++
		}
		rep.Instances = append(rep.Instances, ir)
	}
	if kvReplicaSecSum > 0 {
		rep.KVMeanBytes = kvByteSecSum / kvReplicaSecSum
		if rep.KVCapacityBytes > 0 {
			rep.KVMeanUtilization = rep.KVMeanBytes / float64(rep.KVCapacityBytes)
		}
	}
	if cs.completed > 0 {
		rep.EnergyPerRequestJ = rep.EnergyJ / float64(cs.completed)
	}
	if cs.makespan > 0 {
		toks := rep.TokensOut
		if toks == 0 {
			toks = rep.TokensPadded
		}
		rep.TokensPerSec = float64(toks) / cs.makespan
	}
	for _, o := range cs.oracles {
		rep.DistinctForwardSims += o.DistinctSims()
	}

	for i := range cs.classes {
		c := &cs.classes[i]
		cr := ClassReport{
			Name:            c.cfg.Name,
			RatePerSec:      c.cfg.RatePerSec,
			Offered:         c.offered,
			Admitted:        c.admitted,
			Rejected:        c.rejected,
			Completed:       c.completed,
			Good:            c.good,
			DeadlineMisses:  c.late,
			Shed:            c.shed,
			Retries:         c.retries,
			DeadlineSeconds: c.deadline,
			Latency:         serve.HistStats(c.tLat),
			TTFT:            serve.HistStats(c.ttft),
			TPOT:            serve.HistStats(c.tpot),
			TTFTp99SLO:      c.cfg.TTFTp99SLO,
			LatencyP99SLO:   c.cfg.LatencyP99SLO,
			TPOTp99SLO:      c.cfg.TPOTp99SLO,
		}
		if cs.makespan > 0 {
			cr.GoodputPerSec = float64(c.good) / cs.makespan
		}
		if c.admitted > 0 {
			cr.DeadlineMissRate = float64(c.admitted-c.good) / float64(c.admitted)
		}
		cr.SLOMet = (cr.TTFTp99SLO == 0 || cr.TTFT.P99 <= cr.TTFTp99SLO) &&
			(cr.LatencyP99SLO == 0 || cr.Latency.P99 <= cr.LatencyP99SLO) &&
			(cr.TPOTp99SLO == 0 || cr.TPOT.P99 <= cr.TPOTp99SLO)
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}
