package cluster

import (
	"fmt"

	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
)

// AutoscalerConfig parameterizes the reactive autoscaler. It evaluates
// every IntervalSeconds of simulated time against the response-start p99
// of the window since the previous tick (TTFT for decode requests, total
// latency for prefill-only requests): above SLOSeconds it launches one
// instance (routable after WarmupSeconds); below ScaleDownFactor *
// SLOSeconds — or on an idle fleet — it drains the highest-ID active
// instance, which stops receiving traffic, finishes its outstanding work
// and retires DrainSeconds after it empties.
type AutoscalerConfig struct {
	Enabled bool

	// MinInstances/MaxInstances bound the active+warming fleet size
	// (defaults 1 and 4*initial).
	MinInstances, MaxInstances int

	// IntervalSeconds is the control period (default 5).
	IntervalSeconds float64
	// SLOSeconds is the response-start p99 target (required).
	SLOSeconds float64
	// ScaleDownFactor scales the SLO into the drain threshold (default
	// 0.5: drain when p99 < half the SLO).
	ScaleDownFactor float64
	// WarmupSeconds delays a launched instance's first routed request
	// (default 2) — model load and LUT materialization time.
	WarmupSeconds float64
	// DrainSeconds delays retirement after a draining instance empties
	// (default 1) — connection teardown time.
	DrainSeconds float64
}

// withDefaults fills the zero fields against the initial fleet size.
func (a AutoscalerConfig) withDefaults(initial int) (AutoscalerConfig, error) {
	if !a.Enabled {
		return a, nil
	}
	if a.MinInstances == 0 {
		a.MinInstances = 1
	}
	if a.MaxInstances == 0 {
		a.MaxInstances = 4 * initial
	}
	if a.IntervalSeconds == 0 {
		a.IntervalSeconds = 5
	}
	if a.ScaleDownFactor == 0 {
		a.ScaleDownFactor = 0.5
	}
	if a.WarmupSeconds == 0 {
		a.WarmupSeconds = 2
	}
	if a.DrainSeconds == 0 {
		a.DrainSeconds = 1
	}
	// Every check fails on NaN. An infinite SLO never scales up, but an
	// infinite interval, warm-up or drain leaves a tick or a transition that
	// never lands, and the run never ends.
	switch {
	case !(a.SLOSeconds > 0):
		return a, fmt.Errorf("cluster: autoscaler SLOSeconds %g must be positive", a.SLOSeconds)
	case !positiveFinite(a.IntervalSeconds):
		return a, fmt.Errorf("cluster: autoscaler IntervalSeconds %g must be positive and finite", a.IntervalSeconds)
	case !positiveFinite(a.WarmupSeconds):
		return a, fmt.Errorf("cluster: autoscaler WarmupSeconds %g must be positive and finite", a.WarmupSeconds)
	case !positiveFinite(a.DrainSeconds):
		return a, fmt.Errorf("cluster: autoscaler DrainSeconds %g must be positive and finite", a.DrainSeconds)
	case !(a.ScaleDownFactor > 0 && a.ScaleDownFactor < 1):
		return a, fmt.Errorf("cluster: autoscaler ScaleDownFactor %g outside (0, 1)", a.ScaleDownFactor)
	case a.MinInstances < 1:
		return a, fmt.Errorf("cluster: autoscaler MinInstances %d must be at least 1", a.MinInstances)
	case a.MaxInstances < a.MinInstances:
		return a, fmt.Errorf("cluster: autoscaler bounds inverted (min %d, max %d)", a.MinInstances, a.MaxInstances)
	case initial < a.MinInstances || initial > a.MaxInstances:
		return a, fmt.Errorf("cluster: initial fleet %d outside autoscaler bounds [%d, %d]",
			initial, a.MinInstances, a.MaxInstances)
	}
	return a, nil
}

// scaleTick runs one autoscaler evaluation at simulated time now. Ticks
// and fleet transitions ("up-start", "up-active", "drain-start", "down")
// land on the unified timeline with Kind KindScale.
func (cs *csim) scaleTick(now float64) {
	as := &cs.cfg.Autoscaler
	n := len(cs.window)
	p99 := 0.0
	if n > 0 {
		p99 = trace.Quantiles(cs.window, 0.99)[0]
	}
	cs.window = cs.window[:0]
	active, warming, draining := cs.fleetCounts()
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindScale, Action: "tick", Instance: -1, Replica: -1,
		Active: active, P99: p99, Samples: n,
	})
	switch {
	case n > 0 && p99 > as.SLOSeconds && active+warming < as.MaxInstances:
		cs.launch(now)
	case active > as.MinInstances && warming == 0 && draining == 0 &&
		(n == 0 && cs.outstandingTotal() == 0 || n > 0 && p99 < as.ScaleDownFactor*as.SLOSeconds):
		cs.drainOne(now)
	}
}

// launch creates one warming instance; it becomes routable after the
// warm-up delay.
func (cs *csim) launch(now float64) {
	id := len(cs.members)
	m, err := cs.newMember(id, stateWarming, now)
	if err != nil {
		// Instance construction is validated at Run start; a failure here
		// would be a config mutated mid-run, which cannot happen.
		panic(err)
	}
	cs.members = append(cs.members, m)
	cs.scaleEvent(now, "up-start", id, len(cs.active))
	cs.events.Push(&serve.Event{At: now + cs.cfg.Autoscaler.WarmupSeconds, Inst: int32(id), Kind: evInstanceUp})
}

// drainOne stops routing to the highest-ID active instance; it retires
// once its outstanding work completes.
func (cs *csim) drainOne(now float64) {
	// scaleTick drains only above MinInstances >= 1, so active is non-empty;
	// it is in ID order, so the last entry is the highest active ID.
	victim := cs.active[len(cs.active)-1]
	cs.setState(victim, stateDraining)
	// Draining members don't crash (simplification): their pending fault
	// events died with the transition's epoch bump.
	victim.drainAt = now
	cs.scaleEvent(now, "drain-start", victim.inst.ID, len(cs.active))
	cs.maybeRetire(victim, now)
}

// maybeRetire schedules a draining instance's retirement once it holds no
// outstanding work.
func (cs *csim) maybeRetire(m *member, now float64) {
	if m.state != stateDraining || m.retireScheduled || m.inst.Outstanding() > 0 {
		return
	}
	m.retireScheduled = true
	cs.events.Push(&serve.Event{At: now + cs.cfg.Autoscaler.DrainSeconds, Inst: int32(m.inst.ID), Kind: evInstanceDown})
}
