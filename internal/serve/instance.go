package serve

import (
	"fmt"
	"strings"

	"github.com/ais-snu/localut/internal/audit"
	"github.com/ais-snu/localut/internal/obs"
)

// Request is one inference request moving through a simulator. The serve
// package's single-appliance loop and the cluster package's fleet loop
// both construct Requests at their traffic layer (sampling lengths from
// their own seeded distributions) and hand them to an Instance for
// service; the Instance mutates the service-side fields (Start, FirstTok,
// Finish, Generated) as the request advances.
//
// A request lives in a RequestSlab slot, which every holder of a reference
// to it holds (see Hold); the slot frees itself when no hold is left.
type Request struct {
	ID     int
	Client int // closed-loop client index, -1 for open-loop/trace arrivals
	Class  int // SLO class index (cluster populations; 0 in single-appliance runs)

	Tokens int // sampled prompt length
	Padded int // prompt tokens rounded up to the token quantum

	OutLen    int // sampled output tokens (0 = prefill-only serving)
	Generated int // decode tokens produced so far (beyond the prefill token)

	Deadline float64 // absolute completion deadline in simulated seconds; 0 = none
	Attempts int     // service attempts so far (admissions to an instance)

	// Hedging fields, owned by the traffic layer. Twin links the two
	// copies of a hedged request (each points at the other, and both links
	// go when either copy's traffic hold does); Hedge marks the duplicate
	// copy; Member is the instance currently serving this copy (-1 while
	// unrouted). A freed request's Twin links the slab's free slots instead.
	Twin   *Request
	Member int

	Arrive, Start, FirstTok, Finish float64 // simulated seconds

	// The four small fields sit together so the struct is 128 bytes, which
	// lets RequestSlab fill its allocation size class (see requestChunk).
	Hedge bool
	holds Hold // the holder kinds holding the slot; none on a free slot
	// canceled marks a copy the owning Instance has been told to abandon:
	// PrefillDone/StepDone/Crash skip canceled members of a batch, and the
	// admission queue drops canceled entries as it passes them. A canceled
	// request is never admitted again.
	canceled bool
	// queued is set while the request waits in an Instance's admission
	// queue (between push/pushFront and the pick that takes it), which is
	// what lets Cancel leave the queue without searching it. A request
	// waits in at most one queue at a time.
	queued bool
}

// Expired reports whether the request's deadline (if any) has passed.
func (r *Request) Expired(now float64) bool {
	return r.Deadline > 0 && now > r.Deadline
}

// HeldBy reports whether holder kind h holds r. A request its traffic
// layer no longer holds has ended.
func (r *Request) HeldBy(h Hold) bool { return r.holds&h != 0 }

// Hold is a set of request holder kinds, one bit each; a kind holds a
// slot at most once at a time. The kinds: the traffic layer from New to
// the request's terminal point (finish, shed, refused admission, a
// retired hedge copy), an Instance from Admit until it lets go, a pending
// hedge timer, and a parked retry event.
type Hold uint8

const (
	HoldTraffic Hold = 1 << iota
	HoldInstance
	HoldTimer
	HoldRetry
)

// String names the kinds in h, "none" for a free slot.
func (h Hold) String() string {
	s := ""
	for i, n := range [...]string{"traffic", "instance", "timer", "retry"} {
		if h&(1<<i) != 0 {
			s += "+" + n
		}
	}
	if s == "" {
		return "none"
	}
	return s[1:]
}

// RequestSlab hands the traffic layers Requests: New takes the most
// recently freed slot, else carves one from a chunked backing array (one
// allocation per requestChunk requests). One rule returns every copy of a
// request to the slab: each holder takes its Hold when it gets a reference
// and Releases it when it lets go, and the Release that leaves no hold
// frees the slot, so no holder asks whether it is the last. With one bit
// per kind, a release of a hold not held (doubled, or of a free slot) or a
// hold taken twice is counted and leaves the slot untouched: it is never
// freed early and handed to a second request. Misuse and Balance report
// the books, which the auditors check.
type RequestSlab struct {
	chunk []Request // uncarved rest of the newest chunk
	freed *Request  // free slots, linked through Twin

	news, frees, misuses int
	// The last misuse: the request, the kind it took or released, and the
	// holds it found.
	badID         int
	bad, badFound Hold
}

// requestChunk fills a Go allocation size class: 143 128-byte requests and
// the runtime's 8-byte malloc header are 18,312 bytes, served from the
// 18,432-byte class with 120 to spare (a 128-request chunk of the former
// 136-byte Request sat in the same class with 1,016 bytes of slack).
// TestRequestChunkFillsSizeClass fails when a new field spills the class.
// A chunk is carved only while the free list is empty, so a slab stops at
// the chunks the peak of live requests it has served needs; a chunk is
// garbage once none of its slots is reachable, free list included. A slab
// can outlive one serve.Run: a run that drained and balanced hands it,
// free list full, to the next run through a pool, so a sweep's later runs
// carve only beyond the largest peak before them.
const requestChunk = 143

// New takes a freed slot, or carves the next one, and initializes it to v
// with the traffic layer's hold.
func (s *RequestSlab) New(v Request) *Request {
	r := s.freed
	if r != nil {
		s.freed = r.Twin
	} else {
		if len(s.chunk) == 0 {
			s.chunk = make([]Request, requestChunk)
		}
		r = &s.chunk[0]
		s.chunk = s.chunk[1:]
	}
	*r = v
	r.holds = HoldTraffic
	s.news++
	return r
}

// Hold takes holder kind h's hold on r.
func (s *RequestSlab) Hold(r *Request, h Hold) {
	if r.holds&h != 0 {
		s.misuses++
		s.badID, s.bad, s.badFound = r.ID, h, r.holds
	}
	r.holds |= h
}

// Release drops holder kind h's hold on r and frees the slot when no hold
// is left. Freeing writes only r.Twin and the holds, so a caller still
// inside the event that ended r reads the rest of it unchanged; the slot
// is overwritten at the next New.
func (s *RequestSlab) Release(r *Request, h Hold) {
	if r.holds&h == 0 {
		s.misuses++
		s.badID, s.bad, s.badFound = r.ID, h, r.holds
	} else if r.holds &^= h; r.holds == 0 {
		r.Twin, s.freed = s.freed, r
		s.frees++
	}
}

// Misuse reports the holds taken twice and released unheld, nil when
// there were none.
func (s *RequestSlab) Misuse() error {
	if s.misuses == 0 {
		return nil
	}
	what := "released a %v hold it did not have"
	if s.badFound&s.bad != 0 {
		what = "took its %v hold twice"
	}
	return fmt.Errorf("%d holds taken twice or released unheld; the last: request %d "+what+" (held by: %v)",
		s.misuses, s.badID, s.bad, s.badFound)
}

// Balance reports an imbalance in the slab's books, nil when every New was
// met by a free. Only a drained run balances.
func (s *RequestSlab) Balance() error {
	if s.news == s.frees {
		return nil
	}
	return fmt.Errorf("%d requests taken from the slab, %d freed", s.news, s.frees)
}

// DrainChecks are the end-of-run checks both event loops add to the fleet
// audit: slab-release and slab-balance (Misuse, Balance) and
// finite-latency, given the loop's sum of its histograms' NonFinite counts.
func DrainChecks(slab *RequestSlab, nonFinite int64) []audit.Violation {
	var vs []audit.Violation
	if err := slab.Misuse(); err != nil {
		vs = append(vs, audit.Violation{Invariant: "slab-release", Detail: err.Error()})
	}
	if err := slab.Balance(); err != nil {
		vs = append(vs, audit.Violation{Invariant: "slab-balance", Detail: err.Error()})
	}
	if nonFinite > 0 {
		vs = append(vs, audit.Violation{Invariant: "finite-latency",
			Detail: fmt.Sprintf("%d latency samples were NaN or infinite and are missing from the report's statistics", nonFinite)})
	}
	return vs
}

// Completion kinds: what an Instance schedules when a replica starts a
// forward pass. evArrival (0) is reserved for the traffic layers' own
// arrival events so kinds can share one event-kind namespace.
const (
	// CompletionPrefill is a batched prefill pass finishing.
	CompletionPrefill = 1
	// CompletionStep is one token-level decode step finishing.
	CompletionStep = 2
)

// Completion is a forward pass an Instance has started: the caller owns
// the clock, so it schedules the completion on its own event heap and
// calls PrefillDone or StepDone when simulated time reaches At. Epoch
// snapshots the replica's fault epoch at launch; a caller injecting
// faults must drop completions whose epoch no longer matches
// ReplicaEpoch (the pass was vaporized by a crash or replica failure).
// Batch is the replica's own buffer: valid until the PrefillDone that
// delivers it (or the fault that voids it), then cleared and refilled.
type Completion struct {
	At      float64
	Kind    int // CompletionPrefill or CompletionStep
	Replica int
	Epoch   int
	Batch   []*Request // CompletionPrefill only
}

// KVPolicy selects how an Instance treats its per-replica KV capacity: as
// a passive gauge (reported, never enforced), as a stall budget or as a
// shed budget.
type KVPolicy int

const (
	// KVGauge is the legacy passive mode: capacity is reported (peak,
	// utilization) but never enforced; replicas oversubscribe silently.
	KVGauge KVPolicy = iota
	// KVStall enforces the budget by stalling prefill admission: a batch
	// prefix that fits launches, the rest waits at the head of the queue
	// until decode retirements free KV.
	KVStall
	// KVShed enforces the budget by shedding: requests that don't fit the
	// replica's remaining KV at batch-forming time are dropped.
	KVShed
)

var kvPolicyNames = [...]string{"gauge", "stall", "shed"}

// String names the policy ("gauge", "stall", "shed").
func (p KVPolicy) String() string {
	if p >= 0 && int(p) < len(kvPolicyNames) {
		return kvPolicyNames[p]
	}
	return "KVPolicy(?)"
}

// ParseKVPolicy parses "gauge", "stall" or "shed", case-insensitively.
func ParseKVPolicy(s string) (KVPolicy, error) {
	for i, n := range kvPolicyNames {
		if strings.EqualFold(s, n) {
			return KVPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown KV policy %q (want gauge, stall or shed)", s)
}

// ShedReason says why an Instance dropped a request it had admitted.
type ShedReason int

const (
	// ShedDeadline: the request's deadline expired while it queued.
	ShedDeadline ShedReason = iota
	// ShedKV: the KV budget policy dropped it (KVShed overflow, or a
	// prompt that cannot fit an empty replica under any policy).
	ShedKV
)

// Instance is one appliance's serving state machine: the admission queue,
// batch-forming scheduler, per-replica prefill/decode service and the
// pricing oracle — everything below the traffic layer. It owns no clock
// and no event heap: callers (the single-appliance loop here, the fleet
// loop in internal/cluster) deliver arrivals via Admit, start idle
// replicas via Dispatch, and deliver completions back in event order.
// Instances are not safe for concurrent use; a simulation's event loop is
// serial by construction.
type Instance struct {
	ID  int
	Cfg Config // normalized per-instance configuration

	// OnFirstToken fires at prefill completion of every decode-enabled
	// request (its TTFT moment). OnFinish fires when a request fully
	// completes, after its Finish timestamp is set. OnShed fires when the
	// instance drops an admitted request (deadline expiry, KV pressure).
	// All run inline in event order, so callbacks may aggregate float
	// samples and stay deterministic. Nil callbacks are skipped.
	OnFirstToken func(r *Request, now float64)
	OnFinish     func(r *Request, now float64)
	OnShed       func(r *Request, now float64, reason ShedReason)

	// rec receives batch spans (prefill/decode passes) and KV-stall
	// instants. Nil — the default — makes every hook a single nil check.
	rec *obs.Recorder

	oracle  *Oracle
	sched   scheduler
	q       queue
	ownSlab RequestSlab // the slab until SetSlab wires one

	replicaBusy []bool
	live        [][]*Request // per-replica decode batch
	// inflight is the per-replica prefill batch whose pass is running. Each
	// replica owns one buffer — empty between passes, refilled in place by
	// its next pass — so forming a batch allocates nothing.
	inflight [][]*Request
	comps    []Completion // Dispatch's result buffer
	busy     []float64    // accumulated service seconds per replica
	pimBusy  float64      // accumulated PIM-kernel seconds across replicas

	// Fault bookkeeping. repEpoch bumps whenever a replica loses state
	// (instance crash, replica failure) so stale completions can be
	// recognized; repDown marks replicas lost to a degraded-mode fault;
	// passEnd/passSec/passPIM/passEnergy describe the running pass so an
	// abort can refund its unelapsed cost. passShare is the fraction of
	// the running pass still chargeable — cancellations refund their
	// member's share immediately and shrink it, so a later abort of the
	// same pass cannot refund that share twice.
	repEpoch   []int
	repDown    []bool
	passEnd    []float64
	passSec    []float64
	passPIM    []float64
	passEnergy []float64
	passShare  []float64

	// slowdown is the gray-failure speed factor: every priced pass takes
	// slowdown times its oracle cost in wall-clock seconds (and PIM-busy
	// seconds) while a straggler window is open. 1 = healthy. Energy is
	// unscaled: a slow member does the same work, just later.
	slowdown float64

	kvPerToken   int64   // KV bytes one cached token occupies
	kvPeak       int64   // largest per-replica KV footprint seen
	kvCapacity   int64   // replica DRAM capacity net of the LUT budget
	repKVTokens  []int64 // KV tokens currently pinned per replica (live contexts + in-flight prefill prompts)
	queuedTokens int64   // prompt tokens waiting in the queue
	liveTokens   int64   // context tokens held by live decode requests

	// Time integral of the KV gauge, for the time-weighted mean the peak
	// alone hides: kvByteSec accumulates bytes*seconds across replicas,
	// with kvLast the last accumulation instant per replica. Maintained by
	// touchKV before every repKVTokens mutation.
	kvByteSec float64
	kvLast    []float64

	outstanding int // admitted but not yet finished
	admitted    int
	finished    int
	shed        int
	canceled    int // hedge losers cancelled mid-service
	displaced   int // non-canceled requests handed back by Crash/FailReplica
	crashes     int
	degradedCnt int
	batches     int
	batchReqs   int
	steps       int

	tokensIn, tokensPadded, tokensOut int64
	energyJ                           float64
}

// NewInstance builds an instance from a per-instance config (arrival
// fields are ignored; NormalizeInstance fills the service defaults). A
// non-nil oracle is shared — fleets of identical appliances reuse one
// memo so each distinct forward-pass shape is planned once per fleet, not
// once per instance. Sharing is only safe from a single event loop.
func NewInstance(cfg Config, id int, o *Oracle) (*Instance, error) {
	cfg, err := cfg.NormalizeInstance()
	if err != nil {
		return nil, err
	}
	sched, err := newScheduler(cfg.Scheduler, cfg.MaxBatch)
	if err != nil {
		return nil, err
	}
	if o == nil {
		o = NewOracle(&cfg)
	}
	inst := &Instance{
		ID:          id,
		Cfg:         cfg,
		oracle:      o,
		sched:       sched,
		replicaBusy: make([]bool, cfg.Replicas),
		busy:        make([]float64, cfg.Replicas),
		live:        make([][]*Request, cfg.Replicas),
		inflight:    make([][]*Request, cfg.Replicas),
		repEpoch:    make([]int, cfg.Replicas),
		repDown:     make([]bool, cfg.Replicas),
		passEnd:     make([]float64, cfg.Replicas),
		passSec:     make([]float64, cfg.Replicas),
		passPIM:     make([]float64, cfg.Replicas),
		passEnergy:  make([]float64, cfg.Replicas),
		passShare:   make([]float64, cfg.Replicas),
		slowdown:    1,
		repKVTokens: make([]int64, cfg.Replicas),
		kvLast:      make([]float64, cfg.Replicas),
		kvPerToken:  2 * int64(cfg.Model.Layers) * int64(cfg.Model.Hidden) * kvBytesPerElem,
	}
	// One replica's DRAM capacity net of the LUT budget: the part of the
	// paper's capacity axis KV state competes for.
	pcfg := &cfg.Engine.Cfg
	rankShare := pcfg.Ranks / cfg.Replicas
	if rankShare < 1 {
		rankShare = 1
	}
	inst.kvCapacity = int64(rankShare*pcfg.BanksPerRank) * (pcfg.MRAMBytes - pcfg.MRAMLUTBudget())
	inst.q.slab = &inst.ownSlab
	return inst, nil
}

// SetRecorder attaches a trace recorder and registers the instance's
// tracks: pid ID+1, tid 0 for instance-level events and tid r+1 per
// replica. Safe to call with nil (tracing off) and after lifecycle churn
// (re-registration dedups).
func (inst *Instance) SetRecorder(rec *obs.Recorder) {
	inst.rec = rec
	pid := inst.ID + 1
	rec.Process(pid, fmt.Sprintf("instance %d (%s)", inst.ID, inst.Cfg.Variant))
	for r := 0; r < inst.Cfg.Replicas; r++ {
		rec.Thread(pid, r+1, fmt.Sprintf("replica %d", r))
	}
}

// SetSlab wires the traffic layer's request slab. The instance holds a
// request from Admit until it lets go: after the callback at retire or a
// shed, as it drops a cancelled copy, or when Crash or FailReplica hands it
// back. An instance nothing is wired into uses a slab of its own.
func (inst *Instance) SetSlab(s *RequestSlab) { inst.q.slab = s }

// touchKV integrates the replica's KV footprint up to now. It must run
// before every repKVTokens mutation so kvByteSec is the exact time
// integral of the gauge. The pre-first-prefill stretch integrates zero
// bytes, so the zero-initialized kvLast is correct even for instances
// launched mid-run.
func (inst *Instance) touchKV(rep int, now float64) {
	if dt := now - inst.kvLast[rep]; dt > 0 {
		inst.kvByteSec += float64(inst.repKVTokens[rep]*inst.kvPerToken) * dt
	}
	inst.kvLast[rep] = now
}

// KVByteSeconds flushes every replica's gauge to end and returns the
// accumulated bytes*seconds integral across replicas. Divide by
// span*replicas for the time-weighted mean KV footprint per replica.
func (inst *Instance) KVByteSeconds(end float64) float64 {
	for rep := range inst.repKVTokens {
		inst.touchKV(rep, end)
	}
	return inst.kvByteSec
}

// Admit enqueues an arrived request. It reports false — and leaves all
// counters untouched — when the admission queue is at its MaxQueue bound,
// so the caller can reroute or shed.
func (inst *Instance) Admit(r *Request) bool {
	if inst.Cfg.MaxQueue > 0 && inst.q.len() >= inst.Cfg.MaxQueue {
		return false
	}
	inst.admitted++
	inst.outstanding++
	inst.queuedTokens += int64(r.Tokens)
	inst.q.slab.Hold(r, HoldInstance)
	inst.q.push(r)
	return true
}

// Dispatch starts work on every idle, healthy replica: a prefill pass
// when requests wait and the replica's decode batch has room (prefill
// priority keeps TTFT low and is how newly queued requests join the
// decode batch at step boundaries), else one decode step over the live
// batch. It returns the completions the caller must schedule, in replica
// order; the slice is the instance's own buffer, valid until the next
// Dispatch.
func (inst *Instance) Dispatch(now float64) ([]Completion, error) {
	inst.comps = inst.comps[:0]
	for rep := range inst.replicaBusy {
		if inst.replicaBusy[rep] || inst.repDown[rep] {
			continue
		}
		if err := inst.startWork(rep, now); err != nil {
			return nil, err
		}
	}
	return inst.comps, nil
}

// resetBatch clears replica rep's batch buffer and leaves it empty for the
// replica's next pass, so a stale reference reads nil requests rather than
// that pass's members.
func (inst *Instance) resetBatch(rep int) {
	b := inst.inflight[rep]
	clear(b[:cap(b)])
	inst.inflight[rep] = b[:0]
}

// startWork launches the idle replica's next forward pass, if any, and
// appends its completion to comps.
func (inst *Instance) startWork(rep int, now float64) error {
	for {
		room := inst.Cfg.MaxBatch - len(inst.live[rep])
		if room <= 0 || inst.q.len() == 0 {
			break
		}
		batch := inst.sched.pick(&inst.q, room, inst.inflight[rep])
		batch = inst.dropExpired(batch, now)
		stalled := false
		if len(batch) > 0 && inst.Cfg.KVPolicy != KVGauge {
			batch, stalled = inst.fitKV(rep, batch, now)
		}
		inst.inflight[rep] = batch
		if len(batch) == 0 {
			inst.resetBatch(rep)
			if stalled {
				break // overflow waits at the head; decode will free KV
			}
			continue // everything picked was shed; re-pick
		}
		// Members are already quantum-padded, so their sum is the batch's
		// padded shape; ctx is the longest member (attention span).
		padTokens, maxPad, kvTok := 0, 0, 0
		for _, r := range batch {
			r.Start = now
			padTokens += r.Padded
			kvTok += r.Tokens
			inst.tokensIn += int64(r.Tokens)
			inst.queuedTokens -= int64(r.Tokens)
			if r.Padded > maxPad {
				maxPad = r.Padded
			}
		}
		cost, err := inst.oracle.batch(padTokens, maxPad)
		if err != nil {
			return err
		}
		cost = inst.slowCost(cost)
		inst.tokensPadded += int64(padTokens)
		inst.batches++
		inst.batchReqs += len(batch)
		// The pass materializes every member's prompt KV on this replica;
		// the gauge must see prefill writes, not just decode contexts.
		inst.touchKV(rep, now)
		inst.repKVTokens[rep] += int64(kvTok)
		if kv := inst.repKVTokens[rep] * inst.kvPerToken; kv > inst.kvPeak {
			inst.kvPeak = kv
		}
		inst.notePass(rep, now, cost)
		if inst.rec != nil {
			inst.rec.Span(inst.ID+1, rep+1, "prefill", now, cost.seconds,
				obs.Num("reqs", float64(len(batch))), obs.Num("tokens", float64(padTokens)))
		}
		inst.comps = append(inst.comps, Completion{At: now + cost.seconds, Kind: CompletionPrefill, Replica: rep, Epoch: inst.repEpoch[rep], Batch: batch})
		return nil
	}
	if live := inst.live[rep]; len(live) > 0 {
		// One decode step: each live request's next token attends its
		// prompt plus everything generated so far. Attention cost is
		// linear in the context, so pricing the batch at its mean context
		// is exact; the mean is then bucketed to the token quantum so the
		// oracle's step memo stays bounded.
		// ctxSum prices attention over the padded (shape-bucketed) prompt;
		// the KV gauge counts real prompt lengths (via repKVTokens) —
		// padding is a pricing artifact, not cached memory.
		ctxSum := 0
		for _, r := range live {
			ctxSum += r.Padded + r.Generated + 1
		}
		n := len(live)
		ctx := RoundUp((ctxSum+n-1)/n, inst.Cfg.TokenQuantum)
		cost, err := inst.oracle.decodeStep(n, ctx)
		if err != nil {
			return err
		}
		cost = inst.slowCost(cost)
		inst.steps++
		// KV gauge: during the step the replica holds every live context
		// plus the newly written token per sequence.
		if kv := (inst.repKVTokens[rep] + int64(n)) * inst.kvPerToken; kv > inst.kvPeak {
			inst.kvPeak = kv
		}
		inst.notePass(rep, now, cost)
		if inst.rec != nil {
			inst.rec.Span(inst.ID+1, rep+1, "decode", now, cost.seconds,
				obs.Num("n", float64(n)), obs.Num("ctx", float64(ctx)))
		}
		inst.comps = append(inst.comps, Completion{At: now + cost.seconds, Kind: CompletionStep, Replica: rep, Epoch: inst.repEpoch[rep]})
	}
	return nil
}

// dropExpired sheds batch members whose deadline passed while queued.
func (inst *Instance) dropExpired(batch []*Request, now float64) []*Request {
	keep := batch[:0]
	for _, r := range batch {
		if r.Expired(now) {
			inst.shedQueued(r, now, ShedDeadline)
		} else {
			keep = append(keep, r)
		}
	}
	return keep
}

// fitKV trims a picked prefill batch to the replica's remaining KV
// budget. The fitting prefix launches; the rest stalls (returns to the
// head of the queue) or sheds per policy. A prompt that cannot fit even
// an empty replica is unservable and is shed under either policy. The
// second result is true when nothing fits and the caller must wait for
// decode retirements to free KV.
func (inst *Instance) fitKV(rep int, batch []*Request, now float64) ([]*Request, bool) {
	budget := inst.kvCapacity/inst.kvPerToken - inst.repKVTokens[rep]
	n := 0
	var used int64
	for _, r := range batch {
		if used+int64(r.Tokens) > budget {
			break
		}
		used += int64(r.Tokens)
		n++
	}
	if n == len(batch) {
		return batch, false
	}
	rest := batch[n:]
	if n == 0 && inst.repKVTokens[rep] == 0 {
		// Empty replica and the head still doesn't fit: no amount of
		// stalling will ever serve it.
		inst.shedQueued(rest[0], now, ShedKV)
		inst.q.pushFront(rest[1:])
		return batch[:0], false
	}
	if inst.Cfg.KVPolicy == KVShed {
		for _, r := range rest {
			inst.shedQueued(r, now, ShedKV)
		}
		return batch[:n], false
	}
	inst.q.pushFront(rest)
	if n == 0 {
		inst.rec.Instant(inst.ID+1, rep+1, "kv-stall", now,
			obs.Num("waiting", float64(len(rest))))
		return batch[:0], true
	}
	return batch[:n], false
}

// shedQueued drops a request that was picked from the queue but never
// launched (its tokens are still counted as queued).
func (inst *Instance) shedQueued(r *Request, now float64, reason ShedReason) {
	inst.queuedTokens -= int64(r.Tokens)
	inst.outstanding--
	inst.shed++
	if inst.OnShed != nil {
		inst.OnShed(r, now, reason)
	}
	inst.q.slab.Release(r, HoldInstance)
}

// notePass charges a launched pass and records it for abort refunds.
func (inst *Instance) notePass(rep int, now float64, cost batchCost) {
	inst.busy[rep] += cost.seconds
	inst.pimBusy += cost.pimSec
	inst.energyJ += cost.energyJ
	inst.passEnd[rep] = now + cost.seconds
	inst.passSec[rep] = cost.seconds
	inst.passPIM[rep] = cost.pimSec
	inst.passEnergy[rep] = cost.energyJ
	inst.passShare[rep] = 1
	inst.replicaBusy[rep] = true
}

// slowCost applies the gray-failure speed factor to a priced pass. The
// oracle memo is untouched: slowdown is a per-instance wall-clock effect,
// not a different forward pass.
func (inst *Instance) slowCost(cost batchCost) batchCost {
	if inst.slowdown != 1 {
		cost.seconds *= inst.slowdown
		cost.pimSec *= inst.slowdown
	}
	return cost
}

// SetSlowdown opens (factor > 1) or closes (factor 1) a straggler window:
// subsequent passes are priced at factor times their healthy cost.
// Passes already in flight keep their launch-time pricing — a window
// boundary mid-pass would otherwise break completion-event determinism.
func (inst *Instance) SetSlowdown(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	inst.slowdown = factor
}

// abortPass refunds the unelapsed fraction of a replica's running pass —
// a crashed appliance stops consuming time, PIM cycles and energy at the
// fault instant. The elapsed fraction stays charged: it was really spent.
// Only the still-chargeable share is refunded; shares already refunded to
// cancelled batch members are excluded.
func (inst *Instance) abortPass(rep int, now float64) {
	if !inst.replicaBusy[rep] || inst.passSec[rep] <= 0 || inst.passEnd[rep] <= now {
		return
	}
	left := inst.passEnd[rep] - now
	frac := left / inst.passSec[rep]
	share := inst.passShare[rep]
	inst.busy[rep] -= left * share
	inst.pimBusy -= inst.passPIM[rep] * frac * share
	inst.energyJ -= inst.passEnergy[rep] * frac * share
}

// Cancel abandons one admitted-but-unfinished request: a hedge loser
// whose twin already produced a token elsewhere. A queued copy leaves the
// queue free of charge; a copy inside an in-flight prefill batch has its
// padded-token share of the pass's unelapsed cost refunded (the elapsed
// share is the hedge's wasted work) and its prompt KV unpinned; a live
// decode copy likewise refunds its 1/n share of any running step. It
// reports whether the request was found, plus the service seconds already
// spent on it that could not be refunded.
func (inst *Instance) Cancel(r *Request, now float64) (found bool, wastedSec float64) {
	if r.Finish > 0 {
		return false, 0
	}
	if inst.q.remove(r) {
		inst.queuedTokens -= int64(r.Tokens)
		inst.outstanding--
		inst.canceled++
		return true, 0
	}
	for rep, b := range inst.inflight {
		for _, x := range b {
			if x != r {
				continue
			}
			padSum := 0
			for _, m := range b {
				padSum += m.Padded
			}
			share := float64(r.Padded) / float64(padSum)
			wastedSec = inst.refundShare(rep, now, share)
			r.canceled = true // PrefillDone skips it; Crash/FailReplica drop it
			inst.touchKV(rep, now)
			inst.repKVTokens[rep] -= int64(r.Tokens)
			inst.outstanding--
			inst.canceled++
			return true, wastedSec
		}
	}
	for rep, l := range inst.live {
		for i, x := range l {
			if x != r {
				continue
			}
			if inst.replicaBusy[rep] {
				wastedSec = inst.refundShare(rep, now, 1/float64(len(l)))
			}
			copy(l[i:], l[i+1:])
			l[len(l)-1] = nil
			inst.live[rep] = l[:len(l)-1]
			held := int64(r.Tokens + r.Generated + 1)
			inst.touchKV(rep, now)
			inst.liveTokens -= held
			inst.repKVTokens[rep] -= held
			inst.outstanding--
			inst.canceled++
			inst.q.slab.Release(r, HoldInstance)
			return true, wastedSec
		}
	}
	return false, 0
}

// refundShare refunds one member's share of the replica's running pass
// from now to its end, shrinking the pass's chargeable share so a later
// abort cannot refund it again. It returns the member's share of the
// already-elapsed pass time — spent work no refund can recover.
func (inst *Instance) refundShare(rep int, now float64, share float64) (spentSec float64) {
	if !inst.replicaBusy[rep] || inst.passSec[rep] <= 0 {
		return 0
	}
	left := inst.passEnd[rep] - now
	if left < 0 {
		left = 0
	}
	frac := left / inst.passSec[rep]
	inst.busy[rep] -= left * share
	inst.pimBusy -= inst.passPIM[rep] * frac * share
	inst.energyJ -= inst.passEnergy[rep] * frac * share
	inst.passShare[rep] -= share
	return (inst.passSec[rep] - left) * share
}

// handBack lets go of displaced requests: the instance releases its hold
// on each, and cancelled copies leave the list — their outstanding/KV
// accounting was settled at Cancel time, and handing them back to the
// traffic layer would resurrect dead work.
func (inst *Instance) handBack(rs []*Request) []*Request {
	keep := rs[:0]
	for _, r := range rs {
		if !r.canceled {
			keep = append(keep, r)
		}
		inst.q.slab.Release(r, HoldInstance)
	}
	clear(rs[len(keep):])
	return keep
}

// Crash fail-stops the whole instance: the queue drains (callers reroute
// those untouched), every in-flight prefill batch and live decode batch
// is lost (callers retry those — their KV state is gone, so a retry pays
// full re-prefill), running passes are aborted with a cost refund, and
// every replica's epoch bumps so already-scheduled completions are
// recognizably stale. Replica-level degraded faults are healed as a side
// effect: recovery replaces the appliance's memory wholesale. A crash
// also closes any open straggler window — the repaired appliance is new
// hardware. The two lists are built in qbuf and sbuf, buffers the caller
// owns and may hand back at the next crash.
func (inst *Instance) Crash(now float64, qbuf, sbuf []*Request) (queued, started []*Request) {
	inst.crashes++
	queued, started = qbuf[:0], sbuf[:0]
	for inst.q.len() > 0 {
		queued = append(queued, inst.q.popHead())
	}
	inst.queuedTokens = 0
	for rep := range inst.replicaBusy {
		started = inst.vacate(rep, now, started)
		inst.repDown[rep] = false
	}
	inst.liveTokens = 0
	inst.slowdown = 1
	queued = inst.handBack(queued)
	started = inst.handBack(started)
	inst.outstanding -= len(queued) + len(started)
	inst.displaced += len(queued) + len(started)
	return queued, started
}

// FailReplica injects a degraded-mode fault: the highest-index healthy
// replica (a rank group, in the paper's terms) drops out of service, its
// in-flight and live requests are lost, and the instance keeps serving on
// the survivors. It refuses (-1) when only one replica is healthy — the
// caller should escalate to a full Crash instead. Queued work is
// untouched: the queue is instance-level and the survivors absorb it. The
// lost list is built in buf, a buffer the caller owns.
func (inst *Instance) FailReplica(now float64, buf []*Request) (lost []*Request, rep int) {
	rep = -1
	for i := len(inst.repDown) - 1; i >= 0; i-- {
		if !inst.repDown[i] {
			rep = i
			break
		}
	}
	if rep < 0 || inst.UpReplicas() <= 1 {
		return buf[:0], -1
	}
	inst.degradedCnt++
	for _, r := range inst.live[rep] {
		inst.liveTokens -= int64(r.Tokens + r.Generated + 1)
	}
	lost = inst.vacate(rep, now, buf[:0])
	inst.repDown[rep] = true
	lost = inst.handBack(lost)
	inst.outstanding -= len(lost)
	inst.displaced += len(lost)
	return lost, rep
}

// vacate empties replica rep at a fault: its running pass is aborted with
// a refund, its in-flight batch and live decode requests are appended to
// lost, its KV gauge drops to zero and its epoch bumps so the pass's
// scheduled completion is recognizably stale.
func (inst *Instance) vacate(rep int, now float64, lost []*Request) []*Request {
	inst.abortPass(rep, now)
	lost = append(append(lost, inst.inflight[rep]...), inst.live[rep]...)
	inst.resetBatch(rep)
	inst.live[rep] = nil
	inst.replicaBusy[rep] = false
	inst.touchKV(rep, now)
	inst.repKVTokens[rep] = 0
	inst.repEpoch[rep]++
	return lost
}

// RepairReplica returns the lowest-index failed replica to service and
// reports it (-1 when none is down — e.g. a full crash already replaced
// the hardware). The caller should Dispatch afterwards so the replica
// picks up waiting work.
func (inst *Instance) RepairReplica() int {
	for i, down := range inst.repDown {
		if down {
			inst.repDown[i] = false
			return i
		}
	}
	return -1
}

// UpReplicas counts replicas currently in service.
func (inst *Instance) UpReplicas() int {
	n := 0
	for _, down := range inst.repDown {
		if !down {
			n++
		}
	}
	return n
}

// ReplicaEpoch reports a replica's fault epoch; completions stamped with
// an older epoch refer to state that no longer exists.
func (inst *Instance) ReplicaEpoch(rep int) int { return inst.repEpoch[rep] }

// Inflight returns the prefill batch of replica rep's running pass — the
// Batch of the CompletionPrefill Dispatch returned for it, for a caller
// that kept only the completion's replica and epoch and has checked the
// epoch against ReplicaEpoch. Empty between passes.
func (inst *Instance) Inflight(rep int) []*Request { return inst.inflight[rep] }

// PrefillDone delivers a CompletionPrefill back to the instance: batch
// members emit their first token (OnFirstToken), join the replica's live
// decode batch when more tokens remain, or finish. The batch buffer is
// cleared for the replica's next pass on return.
func (inst *Instance) PrefillDone(replica int, batch []*Request, now float64) {
	inst.replicaBusy[replica] = false
	inst.touchKV(replica, now)
	// The batch stays registered as in-flight until the loop ends: an
	// OnFirstToken callback can settle a hedge race whose loser sits later
	// in this same batch, and Cancel must still find it here to mark it
	// canceled before its own turn comes.
	for _, r := range batch {
		if r.canceled {
			// Hedge loser cancelled mid-pass: its accounting (KV unpin,
			// outstanding, refund) was settled at Cancel time.
			inst.q.slab.Release(r, HoldInstance)
			continue
		}
		r.FirstTok = now
		if r.OutLen > 0 && inst.OnFirstToken != nil {
			inst.OnFirstToken(r, now)
		}
		if r.OutLen > 1 {
			// The prefill pass emitted the first output token; the
			// remaining OutLen-1 decode at token granularity.
			inst.live[replica] = append(inst.live[replica], r)
			inst.liveTokens += int64(r.Tokens + 1)
			inst.repKVTokens[replica]++ // prompt stays pinned; +1 for the emitted token
		} else {
			inst.repKVTokens[replica] -= int64(r.Tokens) // prompt KV released
			inst.retire(r, now)
		}
	}
	inst.resetBatch(replica)
}

// StepDone delivers a CompletionStep: every live request on the replica
// gained one token; finished requests retire, survivors stay live.
func (inst *Instance) StepDone(replica int, now float64) {
	inst.replicaBusy[replica] = false
	inst.touchKV(replica, now)
	live := inst.live[replica]
	surv := live[:0]
	for _, r := range live {
		r.Generated++
		if r.Generated >= r.OutLen-1 {
			inst.liveTokens -= int64(r.Tokens + r.Generated)
			inst.repKVTokens[replica] -= int64(r.Tokens + r.Generated)
			inst.retire(r, now)
		} else {
			inst.liveTokens++
			inst.repKVTokens[replica]++
			surv = append(surv, r)
		}
	}
	clear(live[len(surv):])
	inst.live[replica] = surv
}

// retire completes a request: timestamps, token accounting, callback,
// and the instance lets go of it.
func (inst *Instance) retire(r *Request, now float64) {
	r.Finish = now
	inst.finished++
	inst.outstanding--
	inst.tokensOut += int64(r.OutLen)
	if inst.OnFinish != nil {
		inst.OnFinish(r, now)
	}
	inst.q.slab.Release(r, HoldInstance)
}

// Outstanding reports admitted-but-unfinished requests — the
// least-outstanding-requests routing signal, and zero exactly when the
// instance is fully drained (no queue, no live batch, no pass in flight).
func (inst *Instance) Outstanding() int { return inst.outstanding }

// QueueLen reports requests waiting for a prefill slot.
func (inst *Instance) QueueLen() int { return inst.q.len() }

// KVDemandBytes estimates the KV footprint the instance's current load
// pins: live decode contexts plus queued prompts (which will pin KV once
// admitted). Maintained incrementally, so routing stays O(1) per request.
func (inst *Instance) KVDemandBytes() int64 {
	return (inst.queuedTokens + inst.liveTokens) * inst.kvPerToken
}

// KVFreeBytes is the replica KV capacity left after current demand — the
// weighted-by-free-KV routing signal. It can go negative under
// oversubscription; routers compare, not allocate, so that is fine.
func (inst *Instance) KVFreeBytes() int64 { return inst.kvCapacity - inst.KVDemandBytes() }

// Oracle returns the instance's pricing oracle (shared across a fleet of
// identical appliances).
func (inst *Instance) Oracle() *Oracle { return inst.oracle }

// LiveCount reports requests currently in a decode batch, across replicas
// — the live-batch-occupancy metrics gauge.
func (inst *Instance) LiveCount() int {
	n := 0
	for _, l := range inst.live {
		n += len(l)
	}
	return n
}

// BusyReplicas counts replicas with a pass in flight.
func (inst *Instance) BusyReplicas() int {
	n := 0
	for _, b := range inst.replicaBusy {
		if b {
			n++
		}
	}
	return n
}

// KVPinnedBytes reports the KV bytes currently pinned across replicas —
// the instantaneous value of the gauge Peak/Mean summarize.
func (inst *Instance) KVPinnedBytes() int64 {
	var tok int64
	for _, t := range inst.repKVTokens {
		tok += t
	}
	return tok * inst.kvPerToken
}

// Account is the instance's ledger for the conservation auditor, read from
// its own counters, over a routable life [activeAt, end] with unavail
// seconds of it spent crashed.
func (inst *Instance) Account(activeAt, end, unavail float64) audit.Instance {
	var busy float64
	for _, b := range inst.busy {
		busy += b
	}
	return audit.Instance{
		ID:                 inst.ID,
		Replicas:           inst.Cfg.Replicas,
		ActiveAt:           activeAt,
		End:                end,
		UnavailableSeconds: unavail,
		BusySeconds:        busy,
		PIMBusySeconds:     inst.pimBusy,
		EnergyJ:            inst.energyJ,
		KVPinnedEndBytes:   inst.KVPinnedBytes(),
		Admitted:           inst.admitted,
		Finished:           inst.finished,
		Shed:               inst.shed,
		Canceled:           inst.canceled,
		Displaced:          inst.displaced,
		Outstanding:        inst.outstanding,
	}
}

// InstanceStats is a snapshot of an instance's service counters, taken
// for per-instance cluster reporting.
type InstanceStats struct {
	Admitted, Finished int
	Shed               int
	Canceled           int
	Displaced          int
	Crashes            int
	Degraded           int
	Batches            int
	BatchRequests      int
	DecodeSteps        int

	TokensIn, TokensPadded, TokensOut int64
	EnergyJ                           float64

	BusySeconds    []float64 // per replica
	PIMBusySeconds float64

	KVPeakBytes, KVCapacityBytes int64
}

// Stats snapshots the instance's counters.
func (inst *Instance) Stats() InstanceStats {
	busy := make([]float64, len(inst.busy))
	copy(busy, inst.busy)
	return InstanceStats{
		Admitted:        inst.admitted,
		Finished:        inst.finished,
		Shed:            inst.shed,
		Canceled:        inst.canceled,
		Displaced:       inst.displaced,
		Crashes:         inst.crashes,
		Degraded:        inst.degradedCnt,
		Batches:         inst.batches,
		BatchRequests:   inst.batchReqs,
		DecodeSteps:     inst.steps,
		TokensIn:        inst.tokensIn,
		TokensPadded:    inst.tokensPadded,
		TokensOut:       inst.tokensOut,
		EnergyJ:         inst.energyJ,
		BusySeconds:     busy,
		PIMBusySeconds:  inst.pimBusy,
		KVPeakBytes:     inst.kvPeak,
		KVCapacityBytes: inst.kvCapacity,
	}
}
