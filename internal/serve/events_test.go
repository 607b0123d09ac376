package serve

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// boxedHeap is the container/heap event queue the typed EventQueue
// replaced, kept as the ordering reference.
type boxedHeap []*Event

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventQueueMatchesBoxedHeap drives the typed queue and the boxed
// reference through the same random interleaving of pushes and pops, with
// timestamps and instances drawn from small sets so every level of the
// (time, instance, sequence) order breaks ties, and requires identical pop
// sequences. A third of the pushes go through PushOrdered on a random lane,
// timed at, just above or just below the lane's newest entry, so lanes see
// in-order appends, ties on time and instance, and out-of-order events
// that must fall through to the heap. Every event carries a full payload
// (request, epoch, payload word, flag) that must come back out unchanged.
// It also pins the recycling contract: Pop zeroes the pooled entry or ring
// slot it vacates, so the queue pins no request it no longer holds.
func TestEventQueueMatchesBoxedHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q EventQueue
	var ref boxedHeap
	var seq int64
	var now float64
	var laneAt [2]float64
	var appended, fellThrough, lanePops int
	req := &Request{ID: 7}
	for step := 0; step < 20000; step++ {
		if q.Len() != ref.Len() {
			t.Fatalf("step %d: queue holds %d events, reference %d", step, q.Len(), ref.Len())
		}
		if q.Len() == 0 || rng.Intn(100) < 52 {
			ev := Event{At: now + float64(rng.Intn(40)), Inst: int32(rng.Intn(5) - 1), Kind: uint8(step), Req: req,
				Epoch: int32(step), Arg: int32(-step), Flag: step%2 == 1}
			if rng.Intn(3) == 0 {
				ln := rng.Intn(2)
				ev.At = math.Max(laneAt[ln], now) + float64(rng.Intn(4)-1)
				laneAt[ln] = math.Max(laneAt[ln], ev.At)
				held := q.lanes[ln].n
				q.PushOrdered(ln, &ev)
				if q.lanes[ln].n > held {
					appended++
				} else {
					fellThrough++
				}
			} else {
				q.Push(&ev)
			}
			ev.seq = seq
			seq++
			heap.Push(&ref, &ev)
			continue
		}
		held := [2]int{q.lanes[0].n, q.lanes[1].n}
		got, want := q.Pop(), heap.Pop(&ref).(*Event)
		if got.At != want.At || got.Inst != want.Inst || got.seq != want.seq || got.Kind != want.Kind {
			t.Fatalf("step %d: popped (at %g, inst %d, seq %d), reference (at %g, inst %d, seq %d)",
				step, got.At, got.Inst, got.seq, want.At, want.Inst, want.seq)
		}
		if got.Req != req || got.Epoch != want.Epoch || got.Arg != want.Arg || got.Flag != want.Flag {
			t.Fatalf("step %d: popped event lost its payload: %+v, pushed %+v", step, got, *want)
		}
		now = got.At
		var vacated *Event // the ring slot behind a lane's head, else the pooled entry
		for ln := range q.lanes {
			if l := &q.lanes[ln]; l.n < held[ln] {
				lanePops++
				vacated = &l.ring[(l.head-1)&(len(l.ring)-1)]
			}
		}
		if vacated == nil {
			vacated = q.free[len(q.free)-1]
		}
		if !reflect.DeepEqual(*vacated, Event{}) {
			t.Fatalf("step %d: vacated entry not cleared: %+v", step, *vacated)
		}
	}
	t.Logf("%d lane appends, %d fall-throughs to the heap, %d lane pops", appended, fellThrough, lanePops)
	if appended < 1000 || fellThrough < 1000 || lanePops < 1000 {
		t.Errorf("%d lane appends, %d fall-throughs to the heap, %d lane pops: the lanes were not exercised", appended, fellThrough, lanePops)
	}
}

// TestEventIsCompact pins the event's size and shape. At 40 bytes the
// compiler moves an Event through Push, a ring slot and Pop with a few
// register loads and stores; a wider one goes through a block-copy routine
// at each of them, which was a tenth to a quarter of a run. Req must stay
// the only field that holds a pointer: a slice or a second pointer added
// back (the prefill batch used to ride here) costs 8 to 24 bytes and a
// write barrier per copy, and the batch is reachable without it (see
// Instance.Inflight).
func TestEventIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 40 {
		t.Errorf("Event is %d bytes, want at most 40", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			if f.Name != "Req" {
				t.Errorf("Event.%s is a %s: Req must be the event's only pointer-bearing field", f.Name, f.Type)
			}
		}
	}
}

// BenchmarkEventQueueMixed is the event mix measured on the steady fleet
// workload: per two pops, one push on the ordered arrival lane and one
// completion through the heap, at a standing depth of 200.
func BenchmarkEventQueueMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q EventQueue
	var now, nextArrival float64
	for i := 0; i < 200; i++ {
		q.Push(&Event{At: rng.Float64(), Inst: int32(i % 64), Kind: CompletionPrefill})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextArrival += 0.005 * rng.Float64()
		q.PushOrdered(0, &Event{At: nextArrival, Inst: -1})
		q.Push(&Event{At: now + rng.Float64(), Inst: int32(i % 64), Kind: CompletionPrefill})
		q.Pop()
		now = q.Pop().At
	}
}

// TestBatchBufferClearedOnRelease pins the other recycling contract: once
// PrefillDone has delivered a batch — or a crash has voided it — the
// Completion's Batch reads nil requests, so a stale reference cannot alias
// the members of the replica's next pass.
func TestBatchBufferClearedOnRelease(t *testing.T) {
	inst := newTestInstance(t, nil)
	launch := func(now float64) Completion {
		t.Helper()
		inst.Admit(testRequest(int(now), 64))
		comps, err := inst.Dispatch(now)
		if err != nil || len(comps) != 1 || len(comps[0].Batch) != 1 {
			t.Fatalf("Dispatch at %g: %d completions, err %v", now, len(comps), err)
		}
		return comps[0]
	}
	c := launch(1)
	inst.PrefillDone(c.Replica, c.Batch, c.At)
	if c.Batch[0] != nil {
		t.Error("delivered batch still references its request after PrefillDone")
	}
	c = launch(2)
	if _, started := inst.Crash(2.5); len(started) != 1 {
		t.Fatalf("crash displaced %d in-flight requests, want 1", len(started))
	}
	if c.Batch[0] != nil {
		t.Error("voided batch still references its request after Crash")
	}
}

// TestServeAllocBudget is the single-appliance twin of the cluster
// package's fleet budget: the extra requests of a prefill run twice as
// long may cost at most 0.25 heap objects and 16 bytes each. Before
// finished requests were recycled the bytes read 131; now under 1.
func TestServeAllocBudget(t *testing.T) {
	allocs := func(seconds float64) (mallocs, bytes uint64, requests int) {
		cfg := testConfig()
		cfg.RatePerSec = 25 // about 0.8 utilisation: the queue stays short
		cfg.DurationSeconds = seconds
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, rep.Requests
	}
	allocs(5) // first-use work outside the two measured runs
	m1, b1, n1 := allocs(800)
	m2, b2, n2 := allocs(1600)
	if n2-n1 < 15000 {
		t.Fatalf("runs admitted %d and %d requests: too close to measure a 20k-request margin", n1, n2)
	}
	perReq := (float64(m2) - float64(m1)) / float64(n2-n1)
	bytesPerReq := (float64(b2) - float64(b1)) / float64(n2-n1)
	t.Logf("%d and %d requests, %d and %d mallocs, %d and %d bytes: %.4f allocs and %.2f bytes per extra request",
		n1, n2, m1, m2, b1, b2, perReq, bytesPerReq)
	if perReq > 0.25 {
		t.Errorf("serve.Run allocates %.3f objects per request, budget 0.25", perReq)
	}
	if bytesPerReq > 16 {
		t.Errorf("serve.Run allocates %.1f bytes per request, budget 16: finished requests are not being recycled", bytesPerReq)
	}
}

// TestStalePrefillNeverReadsNewBatch pins the property that let the batch
// leave the event. A prefill completion carries only its replica and the
// replica's epoch at launch; the loops read the batch from Inflight once
// the epoch has matched. So a completion whose pass a fault voided must
// never match again — even when it pops after the same replica has started
// a new pass, when Inflight holds that pass's members and a loop without
// the check would hand them their first token early.
func TestStalePrefillNeverReadsNewBatch(t *testing.T) {
	// deliver is the completion case of both event loops.
	deliver := func(inst *Instance, ev *Event) bool {
		rep := int(ev.Arg)
		if int(ev.Epoch) != inst.ReplicaEpoch(rep) {
			return false
		}
		if ev.Kind == CompletionPrefill {
			inst.PrefillDone(rep, inst.Inflight(rep), ev.At)
		} else {
			inst.StepDone(rep, ev.At)
		}
		return true
	}
	for name, fault := range map[string]func(*Instance){
		"Crash": func(inst *Instance) { inst.Crash(1e-3) },
		"FailReplica": func(inst *Instance) {
			if _, rep := inst.FailReplica(1e-3); rep != 1 {
				t.Fatalf("FailReplica took replica %d, want 1", rep)
			}
			if rep := inst.RepairReplica(); rep != 1 {
				t.Fatalf("RepairReplica restored replica %d, want 1", rep)
			}
		},
	} {
		// One request per pass: the first two requests occupy replicas 0 and 1.
		inst := newTestInstance(t, func(c *Config) { c.MaxBatch = 1 })
		var q EventQueue
		first, second := testRequest(1, 64), testRequest(2, 64)
		inst.Admit(first)
		inst.Admit(second)
		comps, err := inst.Dispatch(0)
		if err != nil || len(comps) != 2 {
			t.Fatalf("%s: %d passes started, err %v", name, len(comps), err)
		}
		cost := comps[0].At
		for _, c := range comps {
			q.Push(&Event{At: c.At, Kind: uint8(c.Kind), Arg: int32(c.Replica), Epoch: int32(c.Epoch)})
		}
		fault(inst) // voids the pass on replica 1 (Crash: on both)
		// The replacement lands on the lowest idle replica that is up; a
		// second one makes sure replica 1 runs a new pass in both cases.
		third, fourth := testRequest(3, 64), testRequest(4, 64)
		inst.Admit(third)
		inst.Admit(fourth)
		if err := q.Dispatch(inst, 2e-3); err != nil {
			t.Fatal(err)
		}
		if b := inst.Inflight(1); len(b) != 1 || (b[0] != third && b[0] != fourth) {
			t.Fatalf("%s: replica 1 did not start a new pass: in flight %v", name, b)
		}
		newcomer := inst.Inflight(1)[0]
		stale, delivered := 0, 0
		for q.Len() > 0 {
			ev := q.Pop()
			if !deliver(inst, &ev) {
				stale++
				if newcomer.FirstTok != 0 {
					t.Errorf("%s: a voided completion at t=%g delivered the new pass's request", name, ev.At)
				}
				if b := inst.Inflight(1); len(b) != 1 || b[0] != newcomer {
					t.Errorf("%s: the voided completion popped at t=%g, outside the new pass it was meant to overlap", name, ev.At)
				}
				continue
			}
			delivered++
			if err := q.Dispatch(inst, ev.At); err != nil {
				t.Fatal(err)
			}
		}
		if stale == 0 {
			t.Errorf("%s: no completion was dropped as stale", name)
		}
		// Every request here is one 64-token pass of its own, so each takes
		// what the first one was priced at, counted from its own start.
		for _, r := range []*Request{third, fourth} {
			if want := r.Start + cost; r.Start < 2e-3 || r.Finish != want {
				t.Errorf("%s: request %d started at %g and finished at %g, want %g", name, r.ID, r.Start, r.Finish, want)
			}
		}
		if newcomer.Start != 2e-3 {
			t.Errorf("%s: the new pass on replica 1 started at %g, want 0.002", name, newcomer.Start)
		}
		t.Logf("%s: %d completions delivered, %d dropped as stale", name, delivered, stale)
	}
}
