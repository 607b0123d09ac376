package serve

import (
	"fmt"
	"strings"
)

// queue is the FIFO admission queue. Head pops are O(1); the packing
// scheduler removes scattered entries from a bounded prefix, which costs
// O(window) per batch; cancellation is O(1) and lazy.
//
// Lazy cancellation: remove does not search. It marks the request
// canceled, counts it in dead and leaves its entry where it is; popHead
// and takeBucket drop dead entries as they pass them. The invariants that
// keep this invisible to callers:
//
//   - a live entry has r.queued set and r.canceled clear; a dead entry has
//     r.canceled set. A Request waits in at most one queue at a time, so
//     the flags on the request identify its entry without a search;
//   - items[head] is live whenever len() > 0, so the head the schedulers
//     read is never a cancelled request, and when the last live entry
//     leaves, the dead tail is dropped with it;
//   - len() counts live entries only: MaxQueue admission, the queue-depth
//     gauge and the packing window read what an eager removal would give;
//   - settle squeezes dead entries out with the consumed prefix, so
//     len(items) stays within 2*len()+1024 entries. The bound is on the
//     length, not the capacity: cap(items) keeps the largest array the
//     queue has grown to, and serve.Run hands a drained queue's array to
//     the next run through a pool, so the capacity can come from a busier
//     earlier run;
//   - a dead entry is the instance's last reference to its request, so the
//     point that drops it releases the instance's hold on slab.
type queue struct {
	items []*Request
	head  int
	dead  int // cancelled entries still in items[head:]
	slab  *RequestSlab
}

func (q *queue) len() int { return len(q.items) - q.head - q.dead }

// at returns the i-th entry behind the head, dead entries included: at(0)
// is the live head the schedulers read; only tests of a queue nothing was
// cancelled from look further.
func (q *queue) at(i int) *Request { return q.items[q.head+i] }

func (q *queue) push(r *Request) {
	r.queued = true
	q.items = append(q.items, r)
}

// pushFront returns requests to the front of the queue in order (the
// first element becomes the new head). The KV-budget policies use it to
// hand back picked-but-unlaunched work without losing its place in line.
func (q *queue) pushFront(rs []*Request) {
	if len(rs) == 0 {
		return
	}
	for _, r := range rs {
		r.queued = true
	}
	if q.head >= len(rs) {
		q.head -= len(rs)
		copy(q.items[q.head:], rs)
		return
	}
	items := make([]*Request, 0, len(rs)+len(q.items)-q.head)
	items = append(items, rs...)
	items = append(items, q.items[q.head:]...)
	q.items = items
	q.head = 0
}

func (q *queue) popHead() *Request {
	r := q.items[q.head]
	r.queued = false
	q.items[q.head] = nil
	q.head++
	q.settle()
	return r
}

// takeBucket appends to out, in queue order, the first requests among the
// leading window live entries whose padded length is bucket — the head's,
// so the head is always taken — until out holds max, and removes them.
// Survivors at or before the last pick shift toward it so the queue stays
// contiguous; dead entries in that stretch are dropped on the way.
func (q *queue) takeBucket(bucket, window, max int, out []*Request) []*Request {
	last := q.head
	for i, seen := q.head, 0; seen < window && len(out) < max; i++ {
		r := q.items[i]
		if r.canceled {
			continue
		}
		seen++
		if r.Padded == bucket {
			r.queued = false
			out = append(out, r)
			last = i
		}
	}
	// Every live bucket member up to last was taken, so what remains live
	// there is exactly the other buckets' requests; compact them back to
	// front.
	w := last
	for i := last; i >= q.head; i-- {
		switch r := q.items[i]; {
		case r.canceled:
			q.dead--
			q.slab.Release(r, HoldInstance)
		case r.Padded != bucket:
			q.items[w] = r
			w--
		}
	}
	for i := q.head; i <= w; i++ {
		q.items[i] = nil
	}
	q.head = w + 1
	q.settle()
	return out
}

// remove cancels one waiting request in O(1) and reports whether it was
// waiting: the entry stays behind as a dead one (see queue). Request
// cancellation (hedge losers) is the only caller.
func (q *queue) remove(r *Request) bool {
	if !r.queued {
		return false
	}
	r.queued = false
	r.canceled = true
	q.dead++
	q.settle()
	return true
}

// settle restores the queue's invariants after entries left it: dead
// entries at the head are dropped so items[head] is live, and the backing
// array is compacted once consumed and dead slots dominate it.
func (q *queue) settle() {
	for q.dead > 0 && q.items[q.head].canceled {
		q.slab.Release(q.items[q.head], HoldInstance)
		q.items[q.head] = nil
		q.head++
		q.dead--
	}
	if gone := q.head + q.dead; gone > 1024 && gone > len(q.items)/2 {
		n := 0
		for _, r := range q.items[q.head:] {
			if !r.canceled {
				q.items[n] = r
				n++
			} else {
				q.slab.Release(r, HoldInstance)
			}
		}
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head, q.dead = 0, 0
	}
}

// Policy selects the batch-forming scheduler.
type Policy int

const (
	// FCFS serves strictly in arrival order: the next batch is the first
	// MaxBatch waiting requests, whatever their lengths.
	FCFS Policy = iota
	// Packed is the continuous-batching-style shape packer: it scans a
	// bounded window of the queue for requests in the head's padded-length
	// bucket, so every batch is a uniform GEMM shape group.
	Packed
)

var policyNames = [...]string{"fcfs", "packed"}

// String names the policy ("fcfs", "packed").
func (p Policy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses "fcfs" or "packed", case-insensitively.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if strings.EqualFold(s, n) {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown scheduler %q (want fcfs or packed)", s)
}

// scheduler forms the next batch from a non-empty queue. Implementations
// must be deterministic pure functions of the queue contents.
type scheduler interface {
	// pick removes 1..max requests, always including the head (no
	// starvation: the oldest request is served first in every batch), and
	// returns them appended to the empty batch slice out.
	pick(q *queue, max int, out []*Request) []*Request
}

// fcfsScheduler takes the first max requests in arrival order.
type fcfsScheduler struct{}

func (fcfsScheduler) pick(q *queue, max int, out []*Request) []*Request {
	for n := min(q.len(), max); n > 0; n-- {
		out = append(out, q.popHead())
	}
	return out
}

// packedScheduler groups same-bucket requests: it serves the head plus up
// to max-1 requests from the first window queue entries whose padded
// length matches the head's. Requests it skips keep their place in line.
type packedScheduler struct {
	window int
}

func (p packedScheduler) pick(q *queue, max int, out []*Request) []*Request {
	return q.takeBucket(q.at(0).Padded, min(q.len(), p.window), max, out)
}

// newScheduler builds the policy's scheduler. The packing window, 8
// batches deep, bounds the per-batch queue scan (and how far a request can
// be overtaken).
func newScheduler(p Policy, maxBatch int) (scheduler, error) {
	switch p {
	case FCFS:
		return fcfsScheduler{}, nil
	case Packed:
		return packedScheduler{window: 8 * maxBatch}, nil
	}
	return nil, fmt.Errorf("serve: unknown scheduler policy %d", int(p))
}
