package cluster

import (
	"fmt"
	"math"

	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/serve"
)

// FaultConfig is the deterministic fault plan: every active instance
// draws exponential fail-stop times (mean MTTFSeconds) from its own
// seeded stream, so the crash schedule is a pure function of the cluster
// seed and adding instances never perturbs the others' faults. A fault is
// either a full crash — the appliance leaves the router, its queue
// reroutes, its in-flight prefill batches and live decode state are lost
// (KV is gone, retries pay full re-prefill) — or, with probability
// DegradedFraction, a degraded-mode fault: one replica (rank group)
// drops out and the instance keeps serving on the survivors at reduced
// capacity. Recovery waits an exponential repair time (mean MTTRSeconds)
// plus the modeled LUT re-materialization latency: a LoCaLUT appliance
// cannot serve until its lookup tables are rewritten into DRAM, so the
// capacity-vs-computation tradeoff shows up in availability too. Faults
// are injected during the arrival window only.
type FaultConfig struct {
	Enabled bool

	// MTTFSeconds is the per-instance mean time to failure (required).
	MTTFSeconds float64
	// MTTRSeconds is the mean repair delay before re-materialization
	// starts (default 5).
	MTTRSeconds float64
	// DegradedFraction is the probability a fault degrades one replica
	// instead of crashing the instance (default 0; escalates to a crash
	// when only one replica is healthy).
	DegradedFraction float64
	// LUTRematGBps is the DRAM write bandwidth assumed for re-materializing
	// the LUT budget on recovery (default 16).
	LUTRematGBps float64
}

// withDefaults fills and validates the fault plan. Domain outages also pay
// the re-materialization surcharge at LUTRematGBps, so with domains enabled
// that field is filled and checked even when the plan itself is off.
func (f FaultConfig) withDefaults(domains bool) (FaultConfig, error) {
	if !f.Enabled && !domains {
		return f, nil
	}
	if f.LUTRematGBps == 0 {
		f.LUTRematGBps = 16
	}
	if !(f.LUTRematGBps > 0) {
		return f, fmt.Errorf("cluster: LUTRematGBps %g must be positive", f.LUTRematGBps)
	}
	if !f.Enabled {
		return f, nil
	}
	if f.MTTRSeconds == 0 {
		f.MTTRSeconds = 5
	}
	switch {
	case !positiveFinite(f.MTTFSeconds):
		return f, fmt.Errorf("cluster: fault MTTFSeconds %g must be positive and finite", f.MTTFSeconds)
	case !positiveFinite(f.MTTRSeconds):
		return f, fmt.Errorf("cluster: fault MTTRSeconds %g must be positive and finite", f.MTTRSeconds)
	case !(f.DegradedFraction >= 0 && f.DegradedFraction <= 1):
		return f, fmt.Errorf("cluster: DegradedFraction %g outside [0, 1]", f.DegradedFraction)
	}
	return f, nil
}

// positiveFinite reports whether x can be the mean of an exponential draw, a
// delay added to simulated time or a factor on a pass's cost. The chaos plans
// validate by what a field must be, not by what it must not: a NaN passes
// every `x <= 0` test and then schedules events at t = NaN, which the loop
// never gets past. +Inf is refused with it, because a draw of zero times an
// infinite mean is NaN again and an event at t = +Inf ends no run; where +Inf
// is a meaningful "never" (the hedge delay, the backoff cap, the
// re-materialization bandwidth) the field is checked with !(x > 0) alone.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// RetryConfig governs re-service of work displaced by faults. Queued
// requests on a crashed instance reroute immediately (their service never
// started); lost work — in-flight prefill or live decode — consumed an
// attempt and retries after capped exponential backoff.
type RetryConfig struct {
	// MaxAttempts bounds total service attempts per request (default 3).
	MaxAttempts int
	// BackoffSeconds is the first retry delay (default 0.05); attempt k
	// waits BackoffSeconds * 2^(k-1), capped at BackoffCapSeconds.
	BackoffSeconds float64
	// BackoffCapSeconds caps the exponential backoff (default 1).
	BackoffCapSeconds float64
}

// withDefaults fills and validates the retry policy.
func (r RetryConfig) withDefaults() (RetryConfig, error) {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 3
	}
	if r.BackoffSeconds == 0 {
		r.BackoffSeconds = 0.05
	}
	if r.BackoffCapSeconds == 0 {
		r.BackoffCapSeconds = 1
	}
	switch {
	case r.MaxAttempts < 1:
		return r, fmt.Errorf("cluster: retry MaxAttempts %d must be at least 1", r.MaxAttempts)
	case !positiveFinite(r.BackoffSeconds):
		return r, fmt.Errorf("cluster: retry BackoffSeconds %g must be positive and finite", r.BackoffSeconds)
	case !(r.BackoffCapSeconds > 0):
		return r, fmt.Errorf("cluster: retry BackoffCapSeconds %g must be positive", r.BackoffCapSeconds)
	case r.BackoffCapSeconds < r.BackoffSeconds:
		return r, fmt.Errorf("cluster: retry backoff cap %g below initial backoff %g",
			r.BackoffCapSeconds, r.BackoffSeconds)
	}
	return r, nil
}

// backoff is the capped exponential delay before service attempt
// attempt+1 (attempt counts completed admissions so far).
func (r RetryConfig) backoff(attempt int) float64 {
	d := r.BackoffSeconds
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= r.BackoffCapSeconds {
			return r.BackoffCapSeconds
		}
	}
	if d > r.BackoffCapSeconds {
		d = r.BackoffCapSeconds
	}
	return d
}

// faultEvent appends a fault-injection entry ("crash", "repair",
// "degrade", "replica-repair") to the unified timeline and mirrors it
// into the trace as an instant on the instance's track.
func (cs *csim) faultEvent(now float64, action string, inst, rep, active int, recover float64) {
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindFault, Action: action, Instance: inst, Replica: rep,
		Active: active, RecoverSeconds: recover,
	})
	tid := 0
	if rep >= 0 {
		tid = rep + 1
	}
	cs.cfg.Recorder.Instant(inst+1, tid, action, now, obs.Num("active", float64(active)))
}

// shedCause classifies cluster-level request drops.
type shedCause int

const (
	shedExpired   shedCause = iota // deadline passed (queued, or before a retry could land)
	shedKVBudget                   // KV-pressure policy dropped it
	shedQueueFull                  // every routable member's bounded queue was full
	shedRetries                    // retry budget exhausted
)

func (c shedCause) String() string {
	switch c {
	case shedExpired:
		return "expired"
	case shedKVBudget:
		return "kv"
	case shedQueueFull:
		return "queue-full"
	default:
		return "retries"
	}
}

// shedRequest accounts a dropped request and releases the traffic layer's
// hold on it. After the drain, every admitted request is exactly one of:
// completed or shed — hedge duplicates are copies of an already-admitted
// request, so losing one while its twin lives (it expired, found no queue
// or ran out of retries) is hedge bookkeeping, not a shed: the twin stays
// accountable for completion.
func (cs *csim) shedRequest(r *serve.Request, now float64, cause shedCause) {
	if r.Twin != nil {
		r.Twin.Twin = nil
		r.Twin = nil
		cs.hedgeDrops++
	} else {
		cs.shed++
		cs.classes[r.Class].shed++
		switch cause {
		case shedExpired:
			cs.shedExpired++
		case shedKVBudget:
			cs.shedKV++
		case shedQueueFull:
			cs.shedQueueFull++
		case shedRetries:
			cs.shedRetries++
		}
		if rec := cs.cfg.Recorder; rec.Sampled(r.ID) {
			rec.Instant(0, 0, "shed", now,
				obs.Num("id", float64(r.ID)), obs.Str("cause", cause.String()))
			rec.EndAsync(0, "req", r.ID, "request", now)
		}
		if now > cs.makespan {
			cs.makespan = now
		}
	}
	cs.slab.Release(r, serve.HoldTraffic)
}

// onInstanceShed adapts an Instance's shed callback to cluster accounting;
// inst is the shedding member's ID (pinned by the per-member closure).
// KV-pressure sheds are per-request, so the member that shed goes to the
// trace, not the timeline.
func (cs *csim) onInstanceShed(inst int, r *serve.Request, now float64, reason serve.ShedReason) {
	if reason == serve.ShedDeadline {
		cs.shedRequest(r, now, shedExpired)
		return
	}
	cs.requestEnd = now
	if rec := cs.cfg.Recorder; rec.Sampled(r.ID) {
		rec.Instant(0, 0, "kv-shed", now,
			obs.Num("id", float64(r.ID)), obs.Num("member", float64(inst)))
	}
	cs.shedRequest(r, now, shedKVBudget)
}

// scheduleFault draws member m's next fault from its own stream and
// schedules it, stamped with the member's life epoch so the event dies if
// the member leaves service first. Faults land inside the arrival window
// only; later draws are discarded (they would only stretch the drain
// tail).
func (cs *csim) scheduleFault(m *member, now float64) {
	if !cs.cfg.Faults.Enabled {
		return
	}
	at := now + m.faultRNG.ExpFloat64()*cs.cfg.Faults.MTTFSeconds
	degrade := m.faultRNG.Float64() < cs.cfg.Faults.DegradedFraction
	if at > cs.cfg.DurationSeconds {
		return
	}
	cs.events.Push(&serve.Event{At: at, Inst: int32(m.inst.ID), Kind: evInstanceFault, Epoch: m.lifeEpoch, Flag: degrade})
}

// onFault lands a scheduled fault: a degraded-mode replica loss when the
// draw said so and a spare replica exists, else a full crash. Lost work
// requeues; recovery is scheduled with the LUT re-materialization surcharge.
func (cs *csim) onFault(ev *serve.Event, now float64) {
	m := cs.members[ev.Inst]
	if ev.Epoch != m.lifeEpoch || m.state != stateActive {
		return // the member left service before the fault landed
	}
	f := &cs.cfg.Faults
	if ev.Flag && m.inst.UpReplicas() > 1 {
		lost, rep := m.inst.FailReplica(now, cs.started)
		cs.started = lost
		// The instance stays routable with fewer requests aboard and
		// nothing is dispatched here, so the new count is filed now.
		cs.load.file(m.inst.ID, m.inst.Outstanding())
		cs.degradedEvents++
		cs.faultEvent(now, "degrade", m.inst.ID, rep, len(cs.active), 0)
		cs.events.Push(&serve.Event{At: now + m.faultRNG.ExpFloat64()*f.MTTRSeconds + cs.rematReplica,
			Inst: ev.Inst, Kind: evReplicaRepair})
		for _, r := range lost {
			cs.requeue(r, now, true)
		}
		cs.scheduleFault(m, now) // the instance is still up; next fault
		return
	}
	cs.crashMember(m, now, now+m.faultRNG.ExpFloat64()*f.MTTRSeconds+cs.rematFull)
}

// crashMember fail-stops an active member at now: its queue reroutes, its
// lost work requeues with retry accounting, and the epoch-stamped repair
// is scheduled at repairAt. Shared between independent faults and domain
// outages.
func (cs *csim) crashMember(m *member, now, repairAt float64) {
	queued, started := m.inst.Crash(now, cs.queued, cs.started)
	cs.queued, cs.started = queued, started
	cs.setState(m, stateCrashed)
	m.crashAt = now
	m.repairAt = repairAt
	m.straggling = false // the replacement hardware starts healthy
	cs.crashes++
	cs.faultEvent(now, "crash", m.inst.ID, -1, len(cs.active), 0)
	cs.events.Push(&serve.Event{At: repairAt, Inst: int32(m.inst.ID), Kind: evInstanceRepair, Epoch: m.lifeEpoch})
	for _, r := range queued {
		cs.requeue(r, now, false)
	}
	for _, r := range started {
		cs.requeue(r, now, true)
	}
}

// onRepair returns a crashed instance to service: LUT re-materialization
// is already priced into the event time, so from here the member is
// routable and picks up queued retries as they fire. The epoch stamp
// drops repairs a later domain outage superseded — the member stays down
// until the extended window's own repair lands, and the merged outage is
// counted once.
func (cs *csim) onRepair(ev *serve.Event, now float64) error {
	m := cs.members[ev.Inst]
	if ev.Epoch != m.lifeEpoch || m.state != stateCrashed {
		return nil
	}
	cs.setState(m, stateActive)
	rec := now - m.crashAt
	m.unavail += rec
	cs.unavailableSeconds += rec
	cs.recoverTimes = append(cs.recoverTimes, rec)
	cs.faultEvent(now, "repair", m.inst.ID, -1, len(cs.active), rec)
	cs.scheduleFault(m, now)
	cs.scheduleStraggler(m, now)
	return cs.dispatch(m, now)
}

// onReplicaRepair restores a degraded member's lowest failed replica. A
// full crash in the meantime replaced the hardware wholesale, so the
// repair may find nothing to do.
func (cs *csim) onReplicaRepair(ev *serve.Event, now float64) error {
	m := cs.members[ev.Inst]
	if m.state == stateCrashed || m.state == stateDown {
		return nil
	}
	rep := m.inst.RepairReplica()
	if rep < 0 {
		return nil
	}
	cs.faultEvent(now, "replica-repair", m.inst.ID, rep, len(cs.active), 0)
	return cs.dispatch(m, now)
}

// requeue re-disposes a request displaced by a fault. Queued work on a
// crashed member reroutes immediately (its service never started); lost
// work — in-flight prefill, live decode — consumed a service attempt,
// backs off and will pay full re-prefill on its next admission. The retry
// event holds the parked request; with no serving member, a hedge
// resolution in the gap only releases the traffic layer's hold.
func (cs *csim) requeue(r *serve.Request, now float64, lost bool) {
	if lost && r.Attempts >= cs.cfg.Retry.MaxAttempts {
		cs.shedRequest(r, now, shedRetries)
		return
	}
	if !lost && r.Expired(now) {
		cs.shedRequest(r, now, shedExpired)
		return
	}
	at := now
	if lost {
		at += cs.cfg.Retry.backoff(r.Attempts)
		if r.Deadline > 0 && at > r.Deadline {
			cs.shedRequest(r, now, shedExpired)
			return
		}
	}
	r.Member = -1
	cs.slab.Hold(r, serve.HoldRetry)
	cs.events.Push(&serve.Event{At: at, Inst: -1, Kind: evRetry, Req: r, Flag: lost})
}

// route admits r to the fleet: router pick first, then — under bounded
// queues — the first member with room in ID order, else the request is
// shed (or, when a fault emptied the fleet, parked for retry once repairs
// land). Retried lost work is accounted here: its prompt KV is gone, so
// the new instance re-prefills from scratch.
func (cs *csim) route(r *serve.Request, now float64, lost bool) error {
	if len(cs.active) == 0 {
		if !cs.cfg.faultsPossible() {
			// MinInstances >= 1 and drain-only-below-SLO make this
			// unreachable; guard against a silently dropped request.
			return fmt.Errorf("cluster: no routable instance at t=%g", now)
		}
		if r.Expired(now) {
			cs.shedRequest(r, now, shedExpired)
			return nil
		}
		// The whole fleet is down; poll again after a backoff (repairs are
		// always scheduled, so this terminates).
		cs.slab.Hold(r, serve.HoldRetry)
		cs.events.Push(&serve.Event{At: now + cs.cfg.Retry.backoff(r.Attempts), Inst: -1, Kind: evRetry, Req: r, Flag: lost})
		return nil
	}
	m := cs.rt.pick(cs, r)
	if !m.inst.Admit(r) {
		m = nil
		for _, cand := range cs.active {
			if cand.inst.Admit(r) {
				m = cand
				break
			}
		}
		if m == nil {
			cs.shedRequest(r, now, shedQueueFull)
			return nil
		}
	}
	r.Attempts++
	r.Member = m.inst.ID
	if lost {
		cs.retries++
		cs.classes[r.Class].retries++
		cs.reprefillTokens += int64(r.Tokens)
		r.Generated = 0
	}
	return cs.dispatch(m, now)
}
