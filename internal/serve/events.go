package serve

// Event is one entry of a simulation's event queue. The single-appliance
// loop in this package and the fleet loop in internal/cluster schedule on
// the same type, so it carries the union of their payloads; each loop
// reads only the fields its event kinds define.
type Event struct {
	At   float64
	Inst int // owning instance; -1 for fleet-level events
	Kind int
	seq  int64

	Replica int        // completions
	Batch   []*Request // CompletionPrefill
	// Epoch stamps completions (replica fault epoch at launch) and fault,
	// repair and straggler events (member life epoch at scheduling); a
	// mismatch at pop time means the state the event refers to was lost.
	Epoch int

	Client  int      // appliance arrival: closed-loop client, -1 otherwise
	Class   int      // fleet arrival
	Req     *Request // retry, hedge candidate
	Domain  int      // domain outage and repair
	Degrade bool     // fault draw is degraded-mode
	Lost    bool     // retry of lost (not merely queued) work
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

// EventQueue is a binary min-heap of events with a free list of entries.
// Push copies the event into a recycled entry and Pop copies it back out
// and recycles the entry in the same call, so a steady-state loop
// allocates no events and no pointer to a pooled entry ever leaves the
// queue. Recycled entries are zeroed: the free list pins no request or
// batch. The zero value is an empty queue.
type EventQueue struct {
	heap []*Event
	free []*Event
	seq  int64
}

// Len reports the number of scheduled events.
func (q *EventQueue) Len() int { return len(q.heap) }

// Push schedules ev.
func (q *EventQueue) Push(ev Event) {
	var e *Event
	if n := len(q.free); n > 0 {
		e, q.free = q.free[n-1], q.free[:n-1]
	} else {
		e = new(Event)
	}
	*e = ev
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

// Dispatch starts inst's idle replicas at now and schedules the resulting
// completions.
func (q *EventQueue) Dispatch(inst *Instance, now float64) error {
	comps, err := inst.Dispatch(now)
	for i := range comps {
		c := &comps[i]
		q.Push(Event{At: c.At, Inst: inst.ID, Kind: c.Kind, Replica: c.Replica, Epoch: c.Epoch, Batch: c.Batch})
	}
	return err
}

// Pop removes and returns the earliest event. The queue must not be empty.
func (q *EventQueue) Pop() Event {
	h := q.heap
	top := h[0]
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
	ev := *top
	*top = Event{}
	q.free = append(q.free, top)
	return ev
}
