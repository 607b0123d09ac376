package serve

import (
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/audit"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
)

// newTestInstance builds a normalized instance for direct state-machine
// tests.
func newTestInstance(t *testing.T, mutate func(*Config)) *Instance {
	t.Helper()
	cfg := Config{
		Model:    dnn.BERTBase(),
		Fmt:      quant.W1A3,
		Variant:  kernels.LoCaLUT,
		Replicas: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	inst, err := NewInstance(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func testRequest(id, tokens int) *Request {
	return &Request{ID: id, Client: -1, Tokens: tokens, Padded: RoundUp(tokens, 64)}
}

// TestKVPeakSamplesPrefill pins the gauge fix: prefill-only serving pins
// prompt KV during the pass, so the peak must be nonzero even when no
// request ever decodes.
func TestKVPeakSamplesPrefill(t *testing.T) {
	rep, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TokensOut != 0 {
		t.Fatalf("prefill-only scenario generated %d tokens", rep.TokensOut)
	}
	if rep.KVPeakBytes == 0 {
		t.Fatal("prefill writes left no KV peak; the gauge must sample at prefill launch")
	}
	if rep.KVPeakBytes > rep.KVCapacityBytes {
		t.Errorf("unenforced gauge run exceeded capacity: peak %d > cap %d (suspicious for this load)",
			rep.KVPeakBytes, rep.KVCapacityBytes)
	}
}

// TestQueuePushFront pins the head-return path both below and above the
// dead-prefix headroom.
func TestQueuePushFront(t *testing.T) {
	var q queue
	for i := 0; i < 4; i++ {
		q.push(testRequest(i, 16))
	}
	// No headroom: a rebuild must prepend in order.
	q.pushFront([]*Request{testRequest(10, 16), testRequest(11, 16)})
	want := []int{10, 11, 0, 1, 2, 3}
	if q.len() != len(want) {
		t.Fatalf("len %d, want %d", q.len(), len(want))
	}
	for i, id := range want {
		if q.at(i).ID != id {
			t.Fatalf("slot %d holds ID %d, want %d", i, q.at(i).ID, id)
		}
	}
	// Pop two to open headroom, then return them: the in-place path.
	a, b := q.popHead(), q.popHead()
	q.pushFront([]*Request{a, b})
	for i, id := range want {
		if q.at(i).ID != id {
			t.Fatalf("after in-place return, slot %d holds ID %d, want %d", i, q.at(i).ID, id)
		}
	}
}

// TestInstanceMaxQueue pins bounded admission: refusals leave every
// counter untouched.
func TestInstanceMaxQueue(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.MaxQueue = 2 })
	if !inst.Admit(testRequest(0, 16)) || !inst.Admit(testRequest(1, 16)) {
		t.Fatal("admission below the bound refused")
	}
	if inst.Admit(testRequest(2, 16)) {
		t.Fatal("admission above the bound accepted")
	}
	if inst.Outstanding() != 2 || inst.QueueLen() != 2 {
		t.Errorf("refusal perturbed counters: outstanding=%d queue=%d", inst.Outstanding(), inst.QueueLen())
	}
}

// TestInstanceCrash pins fail-stop semantics: the queue and all started
// work are returned, state zeroes, epochs bump so stale completions are
// recognizable.
func TestInstanceCrash(t *testing.T) {
	inst := newTestInstance(t, nil)
	for i := 0; i < 6; i++ {
		inst.Admit(testRequest(i, 16))
	}
	comps, err := inst.Dispatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) == 0 {
		t.Fatal("dispatch started nothing")
	}
	epoch0 := inst.ReplicaEpoch(comps[0].Replica)
	queued, started := inst.Crash(1e-4, nil, nil)
	if len(started) == 0 {
		t.Fatal("crash lost no in-flight work despite running passes")
	}
	if len(queued)+len(started) != 6 {
		t.Fatalf("crash returned %d queued + %d started, want 6 total", len(queued), len(started))
	}
	if inst.Outstanding() != 0 || inst.QueueLen() != 0 {
		t.Errorf("crashed instance still holds work: outstanding=%d queue=%d",
			inst.Outstanding(), inst.QueueLen())
	}
	if inst.ReplicaEpoch(comps[0].Replica) != epoch0+1 {
		t.Error("crash did not bump the replica epoch")
	}
	if inst.KVDemandBytes() != 0 {
		t.Errorf("crashed instance still pins %d KV bytes", inst.KVDemandBytes())
	}
	st := inst.Stats()
	if st.Crashes != 1 {
		t.Errorf("crash counter %d, want 1", st.Crashes)
	}
	// The stale completion must be recognizable by its epoch stamp.
	if comps[0].Epoch == inst.ReplicaEpoch(comps[0].Replica) {
		t.Error("pre-crash completion epoch still matches; stale events would be delivered")
	}
}

// TestFailReplica pins degraded mode: replicas drop highest-first, the
// last healthy replica refuses to fail, and repair restores lowest-first.
func TestFailReplica(t *testing.T) {
	inst := newTestInstance(t, nil) // 2 replicas
	if got := inst.UpReplicas(); got != 2 {
		t.Fatalf("fresh instance has %d healthy replicas, want 2", got)
	}
	_, rep := inst.FailReplica(0, nil)
	if rep != 1 {
		t.Fatalf("failed replica %d, want highest index 1", rep)
	}
	if inst.UpReplicas() != 1 {
		t.Fatalf("after one failure %d healthy, want 1", inst.UpReplicas())
	}
	if _, rep := inst.FailReplica(0, nil); rep != -1 {
		t.Fatalf("last healthy replica failed (rep=%d); must refuse", rep)
	}
	if got := inst.RepairReplica(); got != 1 {
		t.Fatalf("repaired replica %d, want 1", got)
	}
	if inst.UpReplicas() != 2 {
		t.Errorf("after repair %d healthy, want 2", inst.UpReplicas())
	}
	if got := inst.RepairReplica(); got != -1 {
		t.Errorf("healthy instance repaired replica %d, want -1", got)
	}
}

// TestFailReplicaLosesWork verifies a degraded fault loses exactly the
// victim replica's work and dispatch avoids the downed replica.
func TestFailReplicaLosesWork(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.MaxBatch = 2 })
	for i := 0; i < 4; i++ {
		inst.Admit(testRequest(i, 16))
	}
	if _, err := inst.Dispatch(0); err != nil {
		t.Fatal(err)
	}
	lost, rep := inst.FailReplica(1e-4, nil)
	if rep != 1 || len(lost) == 0 {
		t.Fatalf("degraded fault on replica %d lost %d requests", rep, len(lost))
	}
	comps, err := inst.Dispatch(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.Replica == rep {
			t.Errorf("dispatch used downed replica %d", rep)
		}
	}
}

// TestKVShedPolicy pins budget enforcement: with a KV budget squeezed to
// one prompt per replica, the shed policy drops overflow with accounting.
func TestKVShedPolicy(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.KVPolicy = KVShed; c.MaxBatch = 4 })
	shed := 0
	inst.OnShed = func(r *Request, now float64, reason ShedReason) {
		if reason != ShedKV {
			t.Errorf("shed reason %d, want ShedKV", reason)
		}
		shed++
	}
	// Squeeze the budget to two prompts' worth of tokens per replica.
	inst.kvCapacity = 2 * 100 * inst.kvPerToken
	for i := 0; i < 8; i++ {
		inst.Admit(testRequest(i, 100))
	}
	if _, err := inst.Dispatch(0); err != nil {
		t.Fatal(err)
	}
	// 2 replicas x 2 fitting prompts launch; with MaxBatch 4 each replica
	// picked 4 and shed the overflow.
	if shed == 0 {
		t.Fatal("overcommitted KV shed nothing under KVShed")
	}
	if inst.Stats().Shed != shed {
		t.Errorf("stats shed %d != callback count %d", inst.Stats().Shed, shed)
	}
	if inst.Outstanding() != 8-shed {
		t.Errorf("outstanding %d after %d sheds, want %d", inst.Outstanding(), shed, 8-shed)
	}
}

// TestKVStallPolicy pins the stall path: overflow waits at the queue head
// instead of being dropped, and launches once KV frees.
func TestKVStallPolicy(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.KVPolicy = KVStall; c.MaxBatch = 4; c.Replicas = 1 })
	inst.OnShed = func(r *Request, now float64, reason ShedReason) {
		t.Errorf("stall policy shed request %d (%v)", r.ID, reason)
	}
	inst.kvCapacity = 2 * 100 * inst.kvPerToken
	for i := 0; i < 4; i++ {
		inst.Admit(testRequest(i, 100))
	}
	comps, err := inst.Dispatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || len(comps[0].Batch) != 2 {
		t.Fatalf("expected one 2-request prefill within budget, got %+v", comps)
	}
	if inst.QueueLen() != 2 {
		t.Fatalf("overflow not returned to the queue: len %d, want 2", inst.QueueLen())
	}
	// Stalled work keeps arrival order at the head.
	if q := inst.q.at(0); q.ID != 2 {
		t.Errorf("stalled head ID %d, want 2", q.ID)
	}
	// Finish the pass (prefill-only => prompt KV releases) and the stalled
	// pair launches.
	inst.PrefillDone(comps[0].Replica, comps[0].Batch, comps[0].At)
	comps, err = inst.Dispatch(comps[0].At)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || len(comps[0].Batch) != 2 {
		t.Fatalf("stalled work did not launch after KV freed: %+v", comps)
	}
	if inst.Outstanding() != 2 || inst.QueueLen() != 0 {
		t.Errorf("outstanding=%d queue=%d after relaunch", inst.Outstanding(), inst.QueueLen())
	}
}

// TestKVUnservablePromptSheds pins the escape hatch: a prompt too large
// for even an empty replica can never launch and must shed under any
// enforcing policy.
func TestKVUnservablePromptSheds(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.KVPolicy = KVStall; c.Replicas = 1 })
	shed := 0
	inst.OnShed = func(r *Request, now float64, reason ShedReason) {
		if reason != ShedKV {
			t.Errorf("shed reason %d, want ShedKV", reason)
		}
		shed++
	}
	inst.kvCapacity = 50 * inst.kvPerToken
	inst.Admit(testRequest(0, 100)) // can never fit
	inst.Admit(testRequest(1, 40))
	if _, err := inst.Dispatch(0); err != nil {
		t.Fatal(err)
	}
	if shed != 1 {
		t.Fatalf("unservable prompt shed %d times, want 1", shed)
	}
	if inst.Outstanding() != 1 {
		t.Errorf("outstanding %d, want 1 (the servable request)", inst.Outstanding())
	}
}

// TestDeadlineShedsQueued pins deadline enforcement at batch-forming
// time: expired queued work sheds instead of launching.
func TestDeadlineShedsQueued(t *testing.T) {
	inst := newTestInstance(t, nil)
	shed := 0
	inst.OnShed = func(r *Request, now float64, reason ShedReason) {
		if reason != ShedDeadline {
			t.Errorf("shed reason %d, want ShedDeadline", reason)
		}
		shed++
	}
	r := testRequest(0, 16)
	r.Deadline = 1
	inst.Admit(r)
	if _, err := inst.Dispatch(2); err != nil { // past the deadline
		t.Fatal(err)
	}
	if shed != 1 {
		t.Fatalf("expired request shed %d times, want 1", shed)
	}
	if inst.Outstanding() != 0 {
		t.Errorf("outstanding %d after shed, want 0", inst.Outstanding())
	}
}

// TestAbortPassRefund pins the crash cost refund: a pass aborted halfway
// keeps only its elapsed share of busy time and energy.
func TestAbortPassRefund(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.Replicas = 1 })
	inst.Admit(testRequest(0, 64))
	comps, err := inst.Dispatch(0)
	if err != nil {
		t.Fatal(err)
	}
	full := inst.Stats()
	dur := comps[0].At
	half := dur / 2
	inst.Crash(half, nil, nil)
	st := inst.Stats()
	if st.BusySeconds[0] >= full.BusySeconds[0] {
		t.Errorf("abort refunded nothing: busy %g before, %g after", full.BusySeconds[0], st.BusySeconds[0])
	}
	wantBusy := half
	if diff := st.BusySeconds[0] - wantBusy; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("busy after mid-pass abort %g, want elapsed %g", st.BusySeconds[0], wantBusy)
	}
	if st.EnergyJ >= full.EnergyJ || st.EnergyJ <= 0 {
		t.Errorf("energy after abort %g, full pass %g", st.EnergyJ, full.EnergyJ)
	}
}

// TestInstanceAccount pins the wiring of Account, the member ledger both
// loops audit: while passes are in flight the instance is not drained and
// pins KV, and once every completion is delivered its books balance, with
// the busy time its Stats report.
func TestInstanceAccount(t *testing.T) {
	inst := newTestInstance(t, func(c *Config) { c.Model = dnn.OPT125M(); c.MaxBatch = 2 })
	const n = 5
	for i := 0; i < n; i++ {
		r := testRequest(i, 16+24*i)
		r.OutLen = 1 + 3*i // request 0 is prefill-only, the rest decode
		inst.Admit(r)
	}
	check := func(end float64) map[string]bool {
		vs := audit.CheckFleet(&audit.Fleet{
			Offered: n, Admitted: n, Completed: inst.finished, Good: inst.finished,
			Instances: []audit.Instance{inst.Account(0, end, 0)},
		})
		seen := map[string]bool{}
		for _, v := range vs {
			seen[v.Invariant] = true
		}
		return seen
	}
	var events EventQueue
	if err := events.Dispatch(inst, 0); err != nil {
		t.Fatal(err)
	}
	if seen := check(0); !seen["drain"] || !seen["kv-balance"] {
		t.Errorf("passes in flight audited as %v, want drain and kv-balance", seen)
	}
	now := 0.0
	for events.Len() > 0 {
		ev := events.Pop()
		now = ev.At
		if rep := int(ev.Arg); ev.Kind == CompletionPrefill {
			inst.PrefillDone(rep, inst.Inflight(rep), now)
		} else {
			inst.StepDone(rep, now)
		}
		if err := events.Dispatch(inst, now); err != nil {
			t.Fatal(err)
		}
	}
	if seen := check(now); len(seen) != 0 {
		t.Errorf("drained instance audited as %v, want clean", seen)
	}
	var busy float64
	for _, b := range inst.Stats().BusySeconds {
		busy += b
	}
	if got := inst.Account(0, now, 0).BusySeconds; got != busy || busy == 0 {
		t.Errorf("Account busy %g s, Stats busy %g s", got, busy)
	}
}

// TestServeReliabilityValidation covers the config error paths. Each
// negative count is tested alone, so every clause of the shared check has to
// fire by itself.
func TestServeReliabilityValidation(t *testing.T) {
	const negCount = "negative replica/batch/quantum"
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative queue", func(c *Config) { c.MaxQueue = -1 }, "negative queue bound"},
		{"bad kv policy", func(c *Config) { c.KVPolicy = KVPolicy(5) }, "unknown KV policy"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, negCount},
		{"negative max batch", func(c *Config) { c.MaxBatch = -1 }, negCount},
		{"negative token quantum", func(c *Config) { c.TokenQuantum = -1 }, negCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestParseKVPolicy covers the name round-trip.
func TestParseKVPolicy(t *testing.T) {
	for i, name := range kvPolicyNames {
		p, err := ParseKVPolicy(name)
		if err != nil || p != KVPolicy(i) {
			t.Errorf("ParseKVPolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParseKVPolicy("nope"); err == nil {
		t.Error("unknown policy name accepted")
	}
}
