package cluster

import (
	"fmt"
	"math"

	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/serve"
)

// StragglerConfig is the gray-failure plan: each member draws exponential
// straggler-onset times (mean MTBFSeconds) from its own seeded stream.
// During a window (exponential mean MeanDurationSeconds) every pass the
// member launches is priced at Slowdown times its healthy cost — the
// member keeps serving and stays routable, it is just slow, which is the
// tail-at-scale hazard hedging exists for. A crash closes any open window
// (repair replaces the hardware); windows open inside the arrival window
// only but may run into the drain.
type StragglerConfig struct {
	Enabled bool

	// MTBFSeconds is the per-member mean time between straggler windows
	// (required).
	MTBFSeconds float64
	// MeanDurationSeconds is the mean window length (default 5).
	MeanDurationSeconds float64
	// Slowdown multiplies the priced cost of every pass launched inside a
	// window; must exceed 1 (default 4).
	Slowdown float64
}

// withDefaults fills and validates the straggler plan.
func (s StragglerConfig) withDefaults() (StragglerConfig, error) {
	if !s.Enabled {
		return s, nil
	}
	if s.MeanDurationSeconds == 0 {
		s.MeanDurationSeconds = 5
	}
	if s.Slowdown == 0 {
		s.Slowdown = 4
	}
	switch {
	case !positiveFinite(s.MTBFSeconds):
		return s, fmt.Errorf("cluster: straggler MTBFSeconds %g must be positive and finite", s.MTBFSeconds)
	case !positiveFinite(s.MeanDurationSeconds):
		return s, fmt.Errorf("cluster: straggler MeanDurationSeconds %g must be positive and finite", s.MeanDurationSeconds)
	case !(s.Slowdown > 1) || math.IsInf(s.Slowdown, 1):
		return s, fmt.Errorf("cluster: straggler Slowdown %g must exceed 1 and be finite", s.Slowdown)
	}
	return s, nil
}

// scheduleStraggler draws member m's next straggler onset, stamped with
// the member's life epoch so the event dies if the member crashes or
// leaves service first. Draws beyond the arrival window are discarded.
func (cs *csim) scheduleStraggler(m *member, now float64) {
	if !cs.cfg.Stragglers.Enabled {
		return
	}
	at := now + m.stragRNG.ExpFloat64()*cs.cfg.Stragglers.MTBFSeconds
	if at > cs.cfg.DurationSeconds {
		return
	}
	cs.events.Push(&serve.Event{At: at, Inst: int32(m.inst.ID), Kind: evStragglerStart, Epoch: m.lifeEpoch})
}

// onStragglerStart opens a slowdown window on the member: subsequent
// passes cost Slowdown times their healthy pricing until the window
// closes. The member stays routable throughout — that is the point.
func (cs *csim) onStragglerStart(ev *serve.Event, now float64) {
	m := cs.members[ev.Inst]
	if ev.Epoch != m.lifeEpoch || m.state != stateActive || m.straggling {
		return
	}
	f := &cs.cfg.Stragglers
	m.inst.SetSlowdown(f.Slowdown)
	m.straggling = true
	m.stragglerWindows++
	cs.stragglerWindows++
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindStraggler, Action: "start", Instance: m.inst.ID, Replica: -1,
		Active: len(cs.active),
	})
	cs.cfg.Recorder.Instant(m.inst.ID+1, 0, "straggler", now,
		obs.Num("slowdown", f.Slowdown))
	cs.events.Push(&serve.Event{At: now + m.stragRNG.ExpFloat64()*f.MeanDurationSeconds,
		Inst: ev.Inst, Kind: evStragglerEnd, Epoch: m.lifeEpoch})
}

// onStragglerEnd closes the member's slowdown window and draws the next
// onset. A crash in the meantime bumped the life epoch (repair replaced
// the hardware, already healthy), so the stale close is dropped.
func (cs *csim) onStragglerEnd(ev *serve.Event, now float64) {
	m := cs.members[ev.Inst]
	if ev.Epoch != m.lifeEpoch || !m.straggling {
		return
	}
	m.inst.SetSlowdown(1)
	m.straggling = false
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindStraggler, Action: "end", Instance: m.inst.ID, Replica: -1,
		Active: len(cs.active),
	})
	cs.cfg.Recorder.Instant(m.inst.ID+1, 0, "straggler-end", now)
	cs.scheduleStraggler(m, now)
}
