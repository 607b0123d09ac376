package cluster

import (
	"fmt"

	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/serve"
)

// HedgeConfig is the tail-tolerance plan: a request still short of its
// first token DelaySeconds after arrival is duplicated onto a second
// member (fewest outstanding requests, excluding the one already serving
// it). The first copy to produce a token wins; the loser is cancelled
// with the unelapsed share of its pass refunded, and the share already
// spent on it is reported as hedge waste. Classes can override the delay
// via ClassConfig.HedgeDelaySeconds. Hedging a request at most once
// bounds the duplicate load at 2x.
type HedgeConfig struct {
	Enabled bool

	// DelaySeconds is the default wait before a request without a first
	// token is duplicated (required; classes may override).
	DelaySeconds float64
}

// withDefaults fills and validates the hedging plan.
func (h HedgeConfig) withDefaults() (HedgeConfig, error) {
	if !h.Enabled {
		return h, nil
	}
	if !(h.DelaySeconds > 0) {
		return h, fmt.Errorf("cluster: hedge DelaySeconds %g must be positive", h.DelaySeconds)
	}
	return h, nil
}

// onHedgeTimer fires DelaySeconds after a request's arrival: if the
// request is still waiting for its first token, a duplicate is issued to
// a second member. Requests that ended, are already producing tokens, sit
// displaced in a parked retry, or are hedged (a twin exists) are left
// alone. The timer held the request since its arrival and lets go here,
// which frees a request that ended in the meantime.
func (cs *csim) onHedgeTimer(ev *serve.Event, now float64) error {
	r := ev.Req
	waiting := r.HeldBy(serve.HoldTraffic) && r.FirstTok == 0 && r.Twin == nil && r.Member >= 0
	cs.slab.Release(r, serve.HoldTimer)
	if !waiting {
		return nil
	}
	// Fewest-outstanding pick among the other members, ties to the lowest
	// ID, read from the load index with the serving member left out. The
	// primary router is not consulted: a stateful router (round-robin) must
	// not see hedge traffic, or enabling hedging would perturb primary
	// routing.
	id := cs.load.least(r.Member)
	if id < 0 {
		return nil // no second member to hedge onto
	}
	best := cs.members[id]
	h := cs.slab.New(serve.Request{
		ID:     r.ID,
		Client: -1,
		Class:  r.Class,
		Tokens: r.Tokens, Padded: r.Padded,
		OutLen:   r.OutLen,
		Deadline: r.Deadline,
		Arrive:   r.Arrive,
		Hedge:    true,
		Member:   best.inst.ID,
		Twin:     r,
	})
	if !best.inst.Admit(h) {
		cs.slab.Release(h, serve.HoldTraffic)
		return nil // bounded queue full; the original keeps waiting
	}
	h.Attempts++
	r.Twin = h
	cs.hedges++
	cs.requestEnd = now
	if rec := cs.cfg.Recorder; rec.Sampled(r.ID) {
		rec.Instant(0, 0, "hedge", now,
			obs.Num("id", float64(r.ID)), obs.Num("to", float64(best.inst.ID)))
	}
	return cs.dispatch(best, now)
}

// resolveHedge settles a hedged pair at the winner's first token (for
// prefill-only requests, completion). The loser is provably still short
// of its own first token, so it is either queued or inside an in-flight
// prefill pass: cancel it where it stands, refund the unelapsed share of
// its pass, and book the spent share as hedge waste. A loser parked in a
// retry event (its member crashed) has no instance to cancel it on. Either
// way the traffic layer then releases its hold on the loser, and the slot
// frees once the instance or the retry has let go of it too.
func (cs *csim) resolveHedge(w *serve.Request, now float64) {
	l := w.Twin
	w.Twin = nil
	l.Twin = nil
	if w.Hedge {
		cs.hedgeWins++
		cs.requestEnd = now
		if rec := cs.cfg.Recorder; rec.Sampled(w.ID) {
			rec.Instant(0, 0, "hedge-win", now,
				obs.Num("id", float64(w.ID)), obs.Num("member", float64(w.Member)))
		}
	}
	found := false
	if l.Member >= 0 {
		lm := cs.members[l.Member]
		var waste float64
		found, waste = lm.inst.Cancel(l, now)
		cs.hedgeWaste += waste
		// Cancel ends in no dispatch, so the count it moved is filed here.
		cs.load.file(l.Member, lm.inst.Outstanding())
	}
	if found {
		cs.hedgeCancels++
	} else {
		cs.hedgeDrops++
	}
	cs.slab.Release(l, serve.HoldTraffic)
}
