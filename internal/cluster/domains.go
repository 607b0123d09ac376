package cluster

import (
	"fmt"
	"math/rand"

	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/serve"
)

// DomainConfig is the correlated-failure plan: instances are grouped into
// Count failure domains (racks, power feeds) by ID modulo Count, and each
// domain draws exponential outage times (mean MTBFSeconds) from its own
// seeded stream. An outage fail-stops every active member of the domain
// at the same instant — the event heap's (time, instanceID, seq) order
// makes the cascade deterministic — and all of them share one domain-wide
// repair window (exponential mean MTTRSeconds plus the full LUT
// re-materialization surcharge). A member already down from an earlier
// fault has its repair extended to the outage's window, never shortened,
// so overlapping outages merge into one crash-to-repair span and
// UnavailableSeconds is counted exactly once. Outages land inside the
// arrival window only, like independent faults.
type DomainConfig struct {
	Enabled bool

	// Count is the number of failure domains; instance i belongs to
	// domain i % Count (default 2).
	Count int
	// MTBFSeconds is the per-domain mean time between outages (required).
	MTBFSeconds float64
	// MTTRSeconds is the mean domain repair delay before LUT
	// re-materialization starts (default 10).
	MTTRSeconds float64
}

// withDefaults fills and validates the domain plan.
func (d DomainConfig) withDefaults() (DomainConfig, error) {
	if !d.Enabled {
		return d, nil
	}
	if d.Count == 0 {
		d.Count = 2
	}
	if d.MTTRSeconds == 0 {
		d.MTTRSeconds = 10
	}
	switch {
	case d.Count < 1:
		return d, fmt.Errorf("cluster: domain Count %d must be at least 1", d.Count)
	case !positiveFinite(d.MTBFSeconds):
		return d, fmt.Errorf("cluster: domain MTBFSeconds %g must be positive and finite", d.MTBFSeconds)
	case !positiveFinite(d.MTTRSeconds):
		return d, fmt.Errorf("cluster: domain MTTRSeconds %g must be positive and finite", d.MTTRSeconds)
	}
	return d, nil
}

// domainState is one failure domain's outage stream and counters. The
// per-domain outage streams live in the chaosStreams registry
// (streams.go), decoupled from the per-member fault and straggler
// streams so enabling one subsystem never perturbs another.
type domainState struct {
	rng     *rand.Rand
	outages int
}

// initDomains builds the per-domain streams and seeds the first outage of
// each domain.
func (cs *csim) initDomains() {
	if !cs.cfg.Domains.Enabled {
		return
	}
	cs.domains = make([]domainState, cs.cfg.Domains.Count)
	for d := range cs.domains {
		cs.domains[d].rng = chaosRand(cs.cfg.Seed, domainStream, d)
		cs.scheduleDomainOutage(d, 0)
	}
}

// domainOf maps an instance ID to its failure domain (-1 when domains are
// off).
func (cs *csim) domainOf(id int) int {
	if !cs.cfg.Domains.Enabled {
		return -1
	}
	return id % cs.cfg.Domains.Count
}

// scheduleDomainOutage draws domain d's next outage; draws beyond the
// arrival window are discarded.
func (cs *csim) scheduleDomainOutage(d int, now float64) {
	at := now + cs.domains[d].rng.ExpFloat64()*cs.cfg.Domains.MTBFSeconds
	if at > cs.cfg.DurationSeconds {
		return
	}
	cs.events.Push(&serve.Event{At: at, Inst: -1, Kind: evDomainOutage, Arg: int32(d)})
}

// onDomainOutage fail-stops every active member of the domain under one
// shared repair window. Members already crashed (an independent fault, or
// a previous outage still repairing) have their repair extended to the new
// window when it ends later — the overlap merges into a single
// crash-to-repair span so outage time is never double-counted.
func (cs *csim) onDomainOutage(ev *serve.Event, now float64) {
	d := int(ev.Arg)
	ds := &cs.domains[d]
	ds.outages++
	cs.domainOutages++
	repairAt := now + ds.rng.ExpFloat64()*cs.cfg.Domains.MTTRSeconds + cs.rematFull
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindDomain, Action: "outage", Instance: -1, Replica: -1,
		Active: len(cs.active), Domain: d,
	})
	cs.cfg.Recorder.Instant(0, 0, "domain-outage", now,
		obs.Num("domain", float64(d)), obs.Num("active", float64(len(cs.active))))
	for _, m := range cs.members {
		if m.domain != d {
			continue
		}
		switch m.state {
		case stateActive:
			cs.crashMember(m, now, repairAt)
		case stateCrashed:
			if repairAt > m.repairAt {
				// The outage swallows an in-flight repair (possibly mid
				// LUT re-materialization): invalidate the earlier repair
				// event and extend the same outage window.
				m.lifeEpoch++
				m.repairAt = repairAt
				cs.domainOverlaps++
				cs.events.Push(&serve.Event{At: repairAt, Inst: int32(m.inst.ID),
					Kind: evInstanceRepair, Epoch: m.lifeEpoch})
			}
		}
	}
	cs.events.Push(&serve.Event{At: repairAt, Inst: -1, Kind: evDomainRepair, Arg: int32(d)})
	cs.scheduleDomainOutage(d, now)
}

// onDomainRepair marks the end of a domain-wide repair window on the
// timeline. Members return to service through their own epoch-stamped
// repair events; if a later outage extended the window, this marker is
// stale and is skipped.
func (cs *csim) onDomainRepair(ev *serve.Event, now float64) {
	d := int(ev.Arg)
	for _, m := range cs.members {
		if m.domain == d && m.state == stateCrashed && m.repairAt > now {
			return // extended by a later outage; its own marker follows
		}
	}
	cs.timeline = append(cs.timeline, TimelineEvent{
		Seconds: now, Kind: KindDomain, Action: "repair", Instance: -1, Replica: -1,
		Active: len(cs.active), Domain: d,
	})
	cs.cfg.Recorder.Instant(0, 0, "domain-repair", now,
		obs.Num("domain", float64(d)), obs.Num("active", float64(len(cs.active))))
}
