package serve

// Event is one entry of a simulation's event queue. The single-appliance
// loop in this package and the fleet loop in internal/cluster schedule on
// the same type, so it carries the union of their payloads — in 40 bytes,
// which the compiler moves with a few register loads and stores where the
// 112-byte layout it replaced went through a block-copy routine at every
// push, ring slot and pop. Req is the only field that holds a pointer
// (TestEventIsCompact).
//
// Arg is the one payload word; what it holds depends on Kind:
//
//   - CompletionPrefill, CompletionStep: the replica whose pass finished
//   - appliance arrival: the closed-loop client, -1 for open loop and traces
//   - fleet arrival: the SLO class
//   - domain outage and repair: the failure domain
//
// and Flag is the one payload bit: on a fault event, the draw was a
// degraded-mode fault; on a retry, the work was lost, not merely queued.
// Kinds that need neither leave them zero.
//
// A prefill completion carries no batch. Loops drop a completion whose
// Epoch no longer matches ReplicaEpoch — a fault voided the pass — and a
// completion that passes that check is the replica's running pass, because
// a replica runs one pass at a time and only a fault ends one early. Its
// batch is therefore the replica's in-flight buffer, Instance.Inflight,
// which is what the loops hand PrefillDone.
type Event struct {
	At  float64
	seq int64
	Req *Request // retry, hedge candidate

	Inst int32 // owning instance; -1 for fleet-level events
	// Epoch stamps completions (replica fault epoch at launch) and fault,
	// repair and straggler events (member life epoch at scheduling); a
	// mismatch at pop time means the state the event refers to was lost.
	Epoch int32
	Arg   int32
	Kind  uint8
	Flag  bool
}

// before is the queue order: (time, instance, insertion sequence).
// Same-timestamp events process fleet-first, then in instance-ID order,
// and seq — the queue's insertion counter — breaks the remaining ties in
// creation order, so the order is a pure function of config and seed.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.Inst != o.Inst {
		return e.Inst < o.Inst
	}
	return e.seq < o.seq
}

// EventQueue is a binary min-heap of events with a free list of entries,
// plus two ordered lanes: FIFO rings of Event values held beside the heap
// for streams whose events are created already in queue order (the
// open-loop arrival re-arm, the constant-delay hedge timer). A lane push
// and pop is a ring append and a head compare instead of a sift through
// the heap, and on the fleet workloads such streams are half to two thirds
// of all events.
//
// Push copies the event into a recycled entry and Pop copies it back out
// and recycles the entry in the same call, so a steady-state loop
// allocates no events and no pointer to a pooled entry ever leaves the
// queue. Push and PushOrdered take a pointer to the caller's Event, which
// they only read: passed by value, a 40-byte Event was built in one
// temporary, copied into the parameter and copied again into the entry,
// and that was a twelfth of a single-appliance run; Pop measured the same
// either way and returns a value. Recycled entries and popped ring slots
// are zeroed: the queue pins no request it no longer holds. The zero value
// is an empty queue.
type EventQueue struct {
	heap  []*Event
	free  []*Event
	lanes [2]lane
	seq   int64
}

// lane is a FIFO ring of events in nondecreasing queue order. The ring's
// length is zero or a power of two; n entries start at head.
type lane struct {
	ring    []Event
	head, n int
}

// newest returns the lane's most recently appended entry (n > 0).
func (l *lane) newest() *Event { return &l.ring[(l.head+l.n-1)&(len(l.ring)-1)] }

// grow doubles the ring, unrolling the live entries to the front.
func (l *lane) grow() {
	ring := make([]Event, max(2*len(l.ring), 64))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// Len reports the number of scheduled events.
func (q *EventQueue) Len() int { return len(q.heap) + q.lanes[0].n + q.lanes[1].n }

// Push schedules a copy of *ev.
func (q *EventQueue) Push(ev *Event) {
	var e *Event
	if n := len(q.free); n > 0 {
		e, q.free = q.free[n-1], q.free[:n-1]
	} else {
		e = new(Event)
	}
	*e = *ev
	e.seq = q.seq
	q.seq++
	i := len(q.heap)
	q.heap = append(q.heap, e)
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

// PushOrdered schedules a copy of *ev on ordered lane 0 or 1: an append to
// the lane's ring when ev does not sort before the lane's newest entry, and
// otherwise an ordinary Push. The lane is a hint, never a promise the queue
// relies on — an out-of-order event (two classes with different hedge
// delays, an unsorted arrival trace) simply goes through the heap. The
// copy draws its seq from the same counter as Push either way, and Pop
// takes the least of the heap top and the lane heads under before, which
// seq makes a total order; the pop sequence is therefore exactly the one
// Push alone would give.
func (q *EventQueue) PushOrdered(ln int, ev *Event) {
	l := &q.lanes[ln]
	if l.n > 0 {
		// The copy's seq will be the highest yet, so it sorts before the
		// lane's newest entry only on time or instance.
		if nw := l.newest(); ev.At < nw.At || ev.At == nw.At && ev.Inst < nw.Inst {
			q.Push(ev)
			return
		}
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	*e = *ev
	e.seq = q.seq
	q.seq++
	l.n++
}

// Dispatch starts inst's idle replicas at now and schedules the resulting
// completions.
func (q *EventQueue) Dispatch(inst *Instance, now float64) error {
	comps, err := inst.Dispatch(now)
	for i := range comps {
		c := &comps[i]
		q.Push(&Event{At: c.At, Inst: int32(inst.ID), Kind: uint8(c.Kind), Arg: int32(c.Replica), Epoch: int32(c.Epoch)})
	}
	return err
}

// Pop removes and returns the earliest event: the least, under before, of
// the heap top and the two lane heads. The queue must not be empty.
func (q *EventQueue) Pop() Event {
	var least *Event
	src := -1 // the heap, or a lane index
	if len(q.heap) > 0 {
		least = q.heap[0]
	}
	for i := range q.lanes {
		if l := &q.lanes[i]; l.n > 0 {
			if e := &l.ring[l.head]; least == nil || e.before(least) {
				least, src = e, i
			}
		}
	}
	ev := *least
	*least = Event{}
	if src < 0 {
		q.popHeap() // unlinks the top entry without reading it
		q.free = append(q.free, least)
		return ev
	}
	l := &q.lanes[src]
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return ev
}

// popHeap unlinks the heap's top entry.
func (q *EventQueue) popHeap() {
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	q.heap = h
	// Sift the former last entry down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
}
