// Package audit checks conservation invariants over finished simulation
// runs. The fault machinery — crashes, domain outages, retries, hedging,
// pro-rata refunds — moves work and cost between accounts; every move
// must balance, and a silent leak (a request neither completed nor shed,
// busy-seconds exceeding physical capacity, KV pinned after the drain)
// means the simulator is lying about the scenario it modeled. The checks
// run on plain snapshot structs so the package has no dependency on the
// simulators it audits. Both event loops build the snapshots: every
// serve.Run audits itself as a one-member fleet, and cluster.Run does
// under its Audit switch; serve.Instance.Account is the one member
// snapshot both use.
package audit

import (
	"errors"
	"fmt"
	"math"
)

// Violation is one failed invariant.
type Violation struct {
	Invariant string // short name, stable across releases
	Detail    string // human-readable evidence
}

func (v Violation) String() string {
	return v.Invariant + ": " + v.Detail
}

// Err formats violations as one error, each on its own indented line under
// a count prefixed by prefix; nil when vs is empty.
func Err(prefix string, vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%s: conservation audit found %d violation(s)", prefix, len(vs))
	for _, v := range vs {
		msg += "\n  " + v.String()
	}
	return errors.New(msg)
}

// eps is the relative tolerance for float comparisons: refund arithmetic
// subtracts in a different order than charging added, so sums agree to
// rounding, not bitwise.
const eps = 1e-9

// approxLE reports a <= b up to relative tolerance.
func approxLE(a, b float64) bool {
	return a <= b+eps*max(1, math.Abs(a), math.Abs(b))
}

// approxEq reports a == b up to relative tolerance.
func approxEq(a, b float64) bool {
	return approxLE(a, b) && approxLE(b, a)
}

// Instance is one fleet member's post-drain account.
type Instance struct {
	ID       int
	Replicas int

	// ActiveAt/End bound the member's routable life in simulated seconds
	// (End is retirement or the run makespan); UnavailableSeconds is time
	// inside that span spent crashed.
	ActiveAt, End      float64
	UnavailableSeconds float64

	BusySeconds    float64 // Σ per-replica service seconds, refunds applied
	PIMBusySeconds float64
	EnergyJ        float64

	// KVPinnedEndBytes is the KV gauge after the drain; anything nonzero
	// is a pin/unpin imbalance.
	KVPinnedEndBytes int64

	// Request conservation: every admission to this instance must end in
	// exactly one of finished, shed, cancelled (hedge loser) or displaced
	// (handed back by a fault); Outstanding is what remains, and must be
	// zero after the drain.
	Admitted, Finished, Shed int
	Canceled, Displaced      int
	Outstanding              int
}

// Fleet is a run's post-drain account.
type Fleet struct {
	Offered, Admitted, Rejected, Completed int
	Good, Late                             int

	Shed, ShedExpired, ShedKV  int
	ShedQueueFull, ShedRetries int

	// Hedge balance: every issued hedge resolves as exactly one cancel
	// (loser found on its instance) or drop (loser already parked or
	// displaced); wins are the subset of resolutions the duplicate won.
	HedgesIssued, HedgeWins  int
	HedgeCancels, HedgeDrops int
	HedgeWastedSeconds       float64

	// UnavailableSeconds is the fleet counter; RepairWindowSeconds is the
	// independently-summed timeline evidence (Σ repair RecoverSeconds).
	// They must agree, or an outage was double-counted or lost.
	UnavailableSeconds  float64
	RepairWindowSeconds float64

	Instances []Instance
}

// CheckFleet validates a run's conservation invariants and returns every
// violation found (empty = clean). A single-appliance run is a fleet of
// one member that rejects nothing.
func CheckFleet(f *Fleet) []Violation {
	var vs []Violation
	add := func(invariant, format string, args ...interface{}) {
		vs = append(vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	if f.Offered != f.Admitted+f.Rejected {
		add("offered-split", "offered %d != admitted %d + rejected %d",
			f.Offered, f.Admitted, f.Rejected)
	}
	if f.Admitted != f.Completed+f.Shed {
		add("request-conservation", "admitted %d != completed %d + shed %d",
			f.Admitted, f.Completed, f.Shed)
	}
	if f.Completed != f.Good+f.Late {
		add("goodput-split", "completed %d != good %d + late %d",
			f.Completed, f.Good, f.Late)
	}
	if f.Shed != f.ShedExpired+f.ShedKV+f.ShedQueueFull+f.ShedRetries {
		add("shed-split", "shed %d != expired %d + kv %d + queue-full %d + retries %d",
			f.Shed, f.ShedExpired, f.ShedKV, f.ShedQueueFull, f.ShedRetries)
	}
	if f.HedgesIssued != f.HedgeCancels+f.HedgeDrops {
		add("hedge-balance", "hedges issued %d != cancels %d + drops %d",
			f.HedgesIssued, f.HedgeCancels, f.HedgeDrops)
	}
	if f.HedgeWins > f.HedgesIssued {
		add("hedge-wins", "hedge wins %d exceed hedges issued %d", f.HedgeWins, f.HedgesIssued)
	}
	if f.HedgeWastedSeconds < 0 {
		add("hedge-waste", "negative hedge waste %g s", f.HedgeWastedSeconds)
	}
	var unavailSum float64
	for i := range f.Instances {
		in := &f.Instances[i]
		id := in.ID
		unavailSum += in.UnavailableSeconds
		if !(in.UnavailableSeconds >= 0) {
			add("unavailable-nonnegative", "instance %d: unavailable %g s is negative or NaN", id, in.UnavailableSeconds)
		}
		if in.Admitted != in.Finished+in.Shed+in.Canceled+in.Displaced+in.Outstanding {
			add("instance-conservation",
				"instance %d: admitted %d != finished %d + shed %d + canceled %d + displaced %d + outstanding %d",
				id, in.Admitted, in.Finished, in.Shed, in.Canceled, in.Displaced, in.Outstanding)
		}
		if in.Outstanding != 0 {
			add("drain", "instance %d: %d requests outstanding after the drain", id, in.Outstanding)
		}
		if in.BusySeconds < -eps {
			add("busy-nonnegative", "instance %d: busy %g s negative (refund exceeded charge)",
				id, in.BusySeconds)
		}
		if cap := (in.End - in.ActiveAt - in.UnavailableSeconds) * float64(in.Replicas); in.End > in.ActiveAt &&
			!approxLE(in.BusySeconds, cap) {
			add("capacity", "instance %d: busy %g s exceeds available capacity %g s (%d replicas over [%g, %g] minus %g s down)",
				id, in.BusySeconds, cap, in.Replicas, in.ActiveAt, in.End, in.UnavailableSeconds)
		}
		if !approxLE(in.PIMBusySeconds, in.BusySeconds) || in.PIMBusySeconds < -eps {
			add("pim-share", "instance %d: PIM-busy %g s outside [0, busy %g s]",
				id, in.PIMBusySeconds, in.BusySeconds)
		}
		if in.EnergyJ < -eps {
			add("energy-nonnegative", "instance %d: energy %g J negative (refund exceeded charge)",
				id, in.EnergyJ)
		}
		if in.KVPinnedEndBytes != 0 {
			add("kv-balance", "instance %d: %d KV bytes still pinned after the drain",
				id, in.KVPinnedEndBytes)
		}
	}
	if !approxEq(f.UnavailableSeconds, unavailSum) {
		add("unavailable-sum", "fleet unavailable %g s != per-instance sum %g s",
			f.UnavailableSeconds, unavailSum)
	}
	if !approxEq(f.UnavailableSeconds, f.RepairWindowSeconds) {
		add("unavailable-evidence", "fleet unavailable %g s != timeline repair windows %g s",
			f.UnavailableSeconds, f.RepairWindowSeconds)
	}
	return vs
}
