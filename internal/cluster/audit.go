package cluster

import (
	"fmt"
	"math"

	"github.com/ais-snu/localut/internal/audit"
	"github.com/ais-snu/localut/internal/serve"
)

// auditRun rebuilds the run's conservation ledger from first-hand
// evidence — each member's Account and the timeline's repair entries — and
// cross-checks it against the fleet counters. A violation means the
// simulator leaked a request, double-counted an outage, or refunded more
// than it charged: a bug, not a scenario outcome, so Run turns it into
// an error.
func (cs *csim) auditRun() error {
	f := &audit.Fleet{
		Offered:   cs.offered,
		Admitted:  cs.admitted,
		Rejected:  cs.rejected,
		Completed: cs.completed,
		Good:      cs.good,
		Late:      cs.late,

		Shed:          cs.shed,
		ShedExpired:   cs.shedExpired,
		ShedKV:        cs.shedKV,
		ShedQueueFull: cs.shedQueueFull,
		ShedRetries:   cs.shedRetries,

		HedgesIssued:       cs.hedges,
		HedgeWins:          cs.hedgeWins,
		HedgeCancels:       cs.hedgeCancels,
		HedgeDrops:         cs.hedgeDrops,
		HedgeWastedSeconds: cs.hedgeWaste,

		UnavailableSeconds: cs.unavailableSeconds,
	}
	// The run's true end: completions bound the makespan, but repairs and
	// straggler windows can land later during the drain, as can a hedge
	// issued for a request that is then shed, and capacity accounting
	// must cover them.
	simEnd := math.Max(cs.makespan, cs.requestEnd)
	for _, t := range cs.timeline {
		if t.Seconds > simEnd {
			simEnd = t.Seconds
		}
		if t.Kind == KindFault && t.Action == "repair" {
			f.RepairWindowSeconds += t.RecoverSeconds
		}
	}
	for _, m := range cs.members {
		end := m.downAt
		if m.state != stateDown {
			end = simEnd
		}
		f.Instances = append(f.Instances, m.inst.Account(m.activeAt, end, m.unavail))
	}
	vs := audit.CheckFleet(f)
	// The load index must file exactly the routable members, each under its
	// instance's own count; a member filed elsewhere means a call that moved
	// the count was not followed by a re-file.
	for _, m := range cs.members {
		want := -1
		if m.state == stateActive {
			want = m.inst.Outstanding()
		}
		if got := cs.load.filed(m.inst.ID); got != want {
			vs = append(vs, audit.Violation{Invariant: "load-index",
				Detail: fmt.Sprintf("member %d is filed under %d outstanding requests, want %d (-1 = not routable)", m.inst.ID, got, want)})
		}
	}
	vs = append(vs, serve.DrainChecks(&cs.slab, cs.nonFiniteSamples())...)
	return audit.Err("cluster", vs)
}

// nonFiniteSamples counts the NaN and infinite samples the fleet's and the
// classes' latency histograms refused to bucket.
func (cs *csim) nonFiniteSamples() int64 {
	n := cs.qLat.NonFinite + cs.sLat.NonFinite + cs.tLat.NonFinite + cs.ttft.NonFinite + cs.tpot.NonFinite
	for i := range cs.classes {
		c := &cs.classes[i]
		n += c.tLat.NonFinite + c.ttft.NonFinite + c.tpot.NonFinite
	}
	return n
}
