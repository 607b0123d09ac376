package serve

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// eagerQueue is the admission queue as it was before lazy cancellation,
// kept as the behavioural reference: remove searches the queue and closes
// the gap at once, so its slice holds live entries only.
type eagerQueue struct {
	items []*Request
	head  int
}

func (q *eagerQueue) len() int          { return len(q.items) - q.head }
func (q *eagerQueue) push(r *Request)   { q.items = append(q.items, r) }
func (q *eagerQueue) at(i int) *Request { return q.items[q.head+i] }

func (q *eagerQueue) pushFront(rs []*Request) {
	if len(rs) == 0 {
		return
	}
	if q.head >= len(rs) {
		q.head -= len(rs)
		copy(q.items[q.head:], rs)
		return
	}
	items := make([]*Request, 0, len(rs)+q.len())
	items = append(items, rs...)
	items = append(items, q.items[q.head:]...)
	q.items = items
	q.head = 0
}

func (q *eagerQueue) popHead() *Request {
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.maybeCompact()
	return r
}

func (q *eagerQueue) takeBucket(bucket, window, max int, out []*Request) []*Request {
	last := q.head
	for i := q.head; i < q.head+window && len(out) < max; i++ {
		if r := q.items[i]; r.Padded == bucket {
			out = append(out, r)
			last = i
		}
	}
	w := last
	for i := last; i >= q.head; i-- {
		if r := q.items[i]; r.Padded != bucket {
			q.items[w] = r
			w--
		}
	}
	for i := q.head; i <= w; i++ {
		q.items[i] = nil
	}
	q.head = w + 1
	q.maybeCompact()
	return out
}

func (q *eagerQueue) remove(r *Request) bool {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] == r {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

func (q *eagerQueue) maybeCompact() {
	if q.head > 1024 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// TestQueueMatchesEagerReference drives the lazy queue and the eager
// reference through the same 50,000 random operations — push, popHead,
// takeBucket with a random bucket, window and batch bound, pushFront of a
// just-picked suffix (the KV-stall hand-back), and remove of the head, the
// tail, a random waiting request, a just-picked one, an already cancelled
// one and a stranger — and requires the same returned requests and the
// same length at every step, a live head whenever the queue is non-empty,
// and a backing array within 2*len()+1024 entries. Each cancelled entry
// releases the instance's hold exactly once, by the drain.
func TestQueueMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var slab RequestSlab
	q := queue{slab: &slab}
	var ref eagerQueue
	var picked, refPicked []*Request // the most recent pick, not yet handed back
	var cancelled []*Request
	nextID, deepest, hits, misses := 0, 0, 0, 0
	same := func(step int, what string, got, want []*Request) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("step %d: %s returned %d requests, reference %d", step, what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s returned request %d at %d, reference %d", step, what, got[i].ID, i, want[i].ID)
			}
		}
	}
	remove := func(step int, what string, r *Request) {
		t.Helper()
		got, want := q.remove(r), ref.remove(r)
		if got != want {
			t.Fatalf("step %d: remove(%s, request %d) = %v, reference %v", step, what, r.ID, got, want)
		}
		if got {
			hits++
			cancelled = append(cancelled, r)
		} else {
			misses++
		}
	}
	for step := 0; step < 50000; step++ {
		// Filling, cancel-only and draining stretches in turn: the depth
		// crosses the compaction threshold in both directions, and a deep
		// queue loses most of its entries to cancellation with no pop to
		// carry the dead ones away.
		stretch := step / 6000 % 3
		op := rng.Intn(8)
		if stretch == 1 {
			op = 7
		}
		switch {
		case rng.Intn(100) < [...]int{80, 10, 20}[stretch] || ref.len() == 0:
			r := &Request{ID: nextID, Padded: 64 * (1 + rng.Intn(4)), holds: HoldInstance}
			nextID++
			q.push(r)
			ref.push(r)
		case op < 2:
			picked = append(picked[:0], q.popHead())
			refPicked = append(refPicked[:0], ref.popHead())
			same(step, "popHead", picked, refPicked)
		case op < 4:
			bucket := 64 * (1 + rng.Intn(4))
			if rng.Intn(4) > 0 {
				bucket = ref.at(0).Padded // what the packed scheduler asks for
			}
			window, max := 1+rng.Intn(min(ref.len(), 24)), 1+rng.Intn(8)
			picked = q.takeBucket(bucket, window, max, picked[:0])
			refPicked = ref.takeBucket(bucket, window, max, refPicked[:0])
			same(step, "takeBucket", picked, refPicked)
		case op < 5:
			if n := len(picked); n > 0 {
				k := rng.Intn(n + 1)
				q.pushFront(picked[k:])
				ref.pushFront(refPicked[k:])
				picked, refPicked = picked[:k], refPicked[:k]
			}
		default:
			switch kind := rng.Intn(8); {
			case kind == 0:
				remove(step, "head", ref.at(0))
			case kind == 1:
				remove(step, "tail", ref.at(ref.len()-1))
			case kind == 2 && len(picked) > 0:
				remove(step, "just picked", picked[rng.Intn(len(picked))])
			case kind == 3 && len(cancelled) > 0:
				remove(step, "already cancelled", cancelled[rng.Intn(len(cancelled))])
			case kind == 4:
				remove(step, "stranger", &Request{ID: -1})
			default:
				remove(step, "waiting", ref.at(rng.Intn(ref.len())))
			}
		}
		if q.len() != ref.len() {
			t.Fatalf("step %d: queue holds %d requests, reference %d", step, q.len(), ref.len())
		}
		if q.len() > 0 {
			if h := q.at(0); h != ref.at(0) || h.canceled || !h.queued {
				t.Fatalf("step %d: head is request %d (canceled %v, queued %v), reference head %d",
					step, h.ID, h.canceled, h.queued, ref.at(0).ID)
			}
		}
		if len(q.items) > 2*q.len()+1024 {
			t.Fatalf("step %d: %d live requests in a backing array of %d", step, q.len(), len(q.items))
		}
		deepest = max(deepest, q.len())
	}
	for ref.len() > 0 {
		if got, want := q.popHead(), ref.popHead(); got != want {
			t.Fatalf("drain: popped request %d, reference %d", got.ID, want.ID)
		}
	}
	if q.len() != 0 || q.dead != 0 {
		t.Errorf("drained queue reports %d live and %d dead entries", q.len(), q.dead)
	}
	if slab.frees != hits || slab.Misuse() != nil {
		t.Errorf("%d cancelled entries released %d times (misuse: %v), want once each", hits, slab.frees, slab.Misuse())
	}
	t.Logf("deepest queue %d, %d removals hit, %d missed", deepest, hits, misses)
	if deepest < 2500 || hits < 2000 || misses < 500 {
		t.Errorf("deepest queue %d, %d removals hit, %d missed: the walk did not cover compaction and both removal outcomes",
			deepest, hits, misses)
	}
}

// BenchmarkQueueCancel is the hedge-loser path at a standing depth of 256:
// each round admits a keeper and a loser, pops the head and cancels the
// oldest waiting loser. Losers are cancelled 64 rounds after admission,
// when 128 keepers still wait ahead of them, so every cancellation is from
// the middle of the queue. The eager reference runs the same rounds for
// comparison.
func BenchmarkQueueCancel(b *testing.B) {
	type fifo interface {
		push(*Request)
		popHead() *Request
		remove(*Request) bool
	}
	// A request is reused 4096 admissions after its own, long after it left
	// the queue and compaction dropped any cancelled entry pointing at it.
	pool := make([]Request, 4096)
	for _, bc := range []struct {
		name string
		q    fifo
	}{{"lazy", &queue{slab: new(RequestSlab)}}, {"eager", &eagerQueue{}}} {
		b.Run(bc.name, func(b *testing.B) {
			q, admitted := bc.q, 0
			admit := func() *Request {
				r := &pool[admitted%len(pool)]
				*r = Request{ID: admitted, holds: HoldInstance}
				admitted++
				q.push(r)
				return r
			}
			for i := 0; i < 128; i++ {
				admit()
			}
			var losers [64]*Request // oldest at i%64
			for i := range losers {
				admit()
				losers[i] = admit()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.popHead()
				if !q.remove(losers[i%len(losers)]) {
					b.Fatal("the loser was not waiting")
				}
				admit()
				losers[i%len(losers)] = admit()
			}
		})
	}
}

// TestRequestChunkFillsSizeClass pins the slab arithmetic requestChunk's
// comment states: a Request is at most 128 bytes and one chunk is served
// from the 18,432-byte allocation class, so a new field that spills either
// fails here instead of silently costing every request more heap.
func TestRequestChunkFillsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 128 {
		t.Errorf("Request is %d bytes, budget 128: keep the flags together and the chunk arithmetic in step", size)
	}
	// The smallest of a few readings: another goroutine's allocation can
	// only add to a TotalAlloc delta.
	least := ^uint64(0)
	for try := 0; try < 5; try++ {
		var slab RequestSlab
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := slab.New(Request{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 18432 {
		t.Errorf("one %d-request chunk allocates %d bytes, more than the 18,432-byte size class", requestChunk, least)
	}
}

// TestQueueReleasesDeadEntries pins where a cancelled request goes back to
// the slab: at the point its last holder lets go of it — a dead queue entry
// as popHead, takeBucket or a compaction drops it, an in-flight batch member
// at its pass's PrefillDone or the Crash that voids the pass, a live decode
// member at Cancel — and not before. Each cancellation releases the traffic
// layer's hold at once, as the cluster's resolveHedge does, so the slot
// frees where the instance lets go. Cancelled requests sit at the head, in
// the middle and at the tail of the queue. After every step exactly the
// requests expected free are free, each freed once, and no live request is.
func TestQueueReleasesDeadEntries(t *testing.T) {
	var slab RequestSlab
	var all []*Request          // every slot handed out; New reuses freed ones
	want := map[*Request]bool{} // slots that must be on the free list
	released := 0               // frees the steps so far must have made
	newReq := func(padded, outLen int) *Request {
		r := slab.New(Request{ID: len(all), Client: -1, Tokens: padded, Padded: padded, OutLen: outLen})
		all = append(all, r)
		delete(want, r)
		return r
	}
	release := func(rs ...*Request) {
		for _, r := range rs {
			want[r] = true
			released++
		}
	}
	check := func(step string) {
		t.Helper()
		for _, r := range all {
			if free := r.holds == 0; free != want[r] {
				t.Fatalf("%s: request %d free=%v (held by %v), want %v", step, r.ID, free, r.holds, want[r])
			}
		}
		if slab.frees != released || slab.Misuse() != nil {
			t.Fatalf("%s: slab took back %d slots (misuse: %v), want %d once each", step, slab.frees, slab.Misuse(), released)
		}
	}

	q := queue{slab: &slab}
	push := func(r *Request) { // what Admit does
		slab.Hold(r, HoldInstance)
		q.push(r)
	}
	cancel := func(r *Request) {
		q.remove(r)
		slab.Release(r, HoldTraffic)
	}
	a := make([]*Request, 6)
	for i := range a {
		a[i] = newReq(64, 0)
		push(a[i])
	}
	cancel(a[0])
	release(a[0]) // the head goes at once
	cancel(a[2])
	cancel(a[5])
	check("cancel head, middle and tail")
	q.popHead()
	release(a[2]) // now at the head
	check("popHead to the middle")
	q.popHead()
	q.popHead()
	release(a[5]) // the dead tail leaves with the last live entry
	check("popHead to the end")

	b := []*Request{newReq(64, 0), newReq(128, 0), newReq(64, 0), newReq(128, 0), newReq(64, 0), newReq(64, 0)}
	for _, r := range b {
		push(r)
	}
	cancel(b[2])
	cancel(b[5])
	if got := q.takeBucket(64, 4, 8, nil); len(got) != 2 || got[0] != b[0] || got[1] != b[4] {
		t.Fatalf("takeBucket took %d requests, want b0 and b4", len(got))
	}
	release(b[2]) // dropped by the compaction behind the last pick
	check("takeBucket")
	q.popHead()
	q.popHead()
	release(b[5])
	check("drain after takeBucket")

	c := make([]*Request, 3000)
	for i := range c {
		c[i] = newReq(64, 0)
		push(c[i])
	}
	for _, r := range c[1:2001] { // the head stays live, so only a compaction drops these
		cancel(r)
	}
	if q.dead >= 2000 {
		t.Fatalf("%d dead entries after 2000 cancellations: no compaction ran", q.dead)
	}
	compacted := 0
	for _, r := range c[1:2001] {
		if r.holds == 0 {
			release(r)
			compacted++
		}
	}
	if compacted <= 1024 {
		t.Fatalf("compaction freed %d dead entries, want over 1024", compacted)
	}
	check("compaction")
	for q.len() > 0 {
		q.popHead()
	}
	for _, r := range c[1:2001] {
		if !want[r] {
			release(r)
		}
	}
	check("drain after compaction")

	inst := newTestInstance(t, func(c *Config) { c.MaxBatch = 2 })
	inst.SetSlab(&slab)
	cancelIn := func(r *Request, now float64) {
		inst.Cancel(r, now)
		slab.Release(r, HoldTraffic)
	}
	r := make([]*Request, 8)
	for i := range r {
		r[i] = newReq(64, 0)
		inst.Admit(r[i])
	}
	comps, err := inst.Dispatch(0) // replica 0 runs r0 and r1, replica 1 r2 and r3
	if err != nil || len(comps) != 2 {
		t.Fatalf("Dispatch started %d passes, err %v", len(comps), err)
	}
	cancelIn(r[1], 0)
	cancelIn(r[5], 0)
	check("cancel in flight and queued") // the pass and the queue still hold them
	inst.PrefillDone(0, inst.Inflight(0), comps[0].At)
	release(r[1])
	check("PrefillDone")
	if _, err := inst.Dispatch(comps[0].At); err != nil { // replica 0 takes r4 and r6
		t.Fatal(err)
	}
	release(r[5])
	check("Dispatch past a dead entry")
	cancelIn(r[7], comps[0].At)
	release(r[7]) // the queue head goes at once
	cancelIn(r[6], comps[0].At)
	cancelIn(r[3], comps[0].At)
	check("cancel in flight on both replicas")
	queued, started := inst.Crash(comps[0].At, nil, nil)
	if len(queued) != 0 || len(started) != 2 {
		t.Fatalf("Crash displaced %d queued and %d started requests, want 0 and 2", len(queued), len(started))
	}
	release(r[6], r[3])
	check("Crash")

	d := newReq(64, 4)
	inst.Admit(d)
	comps, err = inst.Dispatch(1)
	if err != nil || len(comps) != 1 {
		t.Fatalf("Dispatch started %d passes, err %v", len(comps), err)
	}
	inst.PrefillDone(comps[0].Replica, comps[0].Batch, comps[0].At)
	if inst.LiveCount() != 1 {
		t.Fatalf("decode request not live after its prefill (%d live)", inst.LiveCount())
	}
	cancelIn(d, comps[0].At)
	release(d)
	check("cancel live")
}

// TestSlabMisuseIsReported pins the misuse path of the release rule. A
// holder that releases a hold it does not have — a second time, or on a
// slot already free — or takes one it already has is counted and reported
// by Misuse, never a panic, and the slot is left as it was: not freed
// while another holder still holds it, and never put on the free list
// twice, so no two requests can come to share it.
func TestSlabMisuseIsReported(t *testing.T) {
	for _, tc := range []struct {
		name   string
		misuse func(s *RequestSlab, r *Request)
		holds  Hold // r's holds after the misuse
		frees  int
	}{
		{"doubled release while the instance holds it", func(s *RequestSlab, r *Request) {
			s.Release(r, HoldTraffic)
			s.Release(r, HoldTraffic)
		}, HoldInstance, 0},
		{"release of a free slot", func(s *RequestSlab, r *Request) {
			s.Release(r, HoldTraffic)
			s.Release(r, HoldInstance)
			s.Release(r, HoldInstance)
		}, 0, 1},
		{"hold taken twice", func(s *RequestSlab, r *Request) {
			s.Hold(r, HoldInstance)
		}, HoldTraffic | HoldInstance, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s RequestSlab
			r := s.New(Request{ID: 7})
			s.Hold(r, HoldInstance)
			if err := s.Misuse(); err != nil {
				t.Fatalf("a clean take reported misuse: %v", err)
			}
			tc.misuse(&s, r)
			err := s.Misuse()
			if err == nil || !strings.Contains(err.Error(), "request 7") {
				t.Fatalf("Misuse() = %v, want a report naming request 7", err)
			}
			if s.misuses != 1 || r.holds != tc.holds || s.frees != tc.frees {
				t.Fatalf("after the misuse: %d misuses, slot held by %v, %d frees; want 1, %v, %d",
					s.misuses, r.holds, s.frees, tc.holds, tc.frees)
			}
			// A slot freed once is handed out once: the next New takes it and
			// the one after carves a fresh slot.
			if a, b := s.New(Request{}), s.New(Request{}); (a == r) != (tc.frees == 1) || b == r {
				t.Fatalf("the next two News reuse the slot: %v, %v; want %v, false", a == r, b == r, tc.frees == 1)
			}
		})
	}
}
