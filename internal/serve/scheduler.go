package serve

import (
	"fmt"
	"strings"
)

// queue is the FIFO admission queue. Head pops are O(1); the packing
// scheduler removes scattered entries from a bounded prefix, which costs
// O(window) per batch.
type queue struct {
	items []*Request
	head  int
}

func (q *queue) len() int          { return len(q.items) - q.head }
func (q *queue) push(r *Request)   { q.items = append(q.items, r) }
func (q *queue) at(i int) *Request { return q.items[q.head+i] }

// pushFront returns requests to the front of the queue in order (the
// first element becomes the new head). The KV-budget policies use it to
// hand back picked-but-unlaunched work without losing its place in line.
func (q *queue) pushFront(rs []*Request) {
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

func (q *queue) popHead() *Request {
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.maybeCompact()
	return r
}

// takeBucket appends to out, in queue order, the first requests among the
// leading window entries whose padded length is bucket — the head's, so
// the head is always taken — until out holds max, and removes them.
// Survivors at or before the last pick shift toward it so the queue stays
// contiguous.
func (q *queue) takeBucket(bucket, window, max int, out []*Request) []*Request {
	last := q.head
	for i := q.head; i < q.head+window && len(out) < max; i++ {
		if r := q.items[i]; r.Padded == bucket {
			out = append(out, r)
			last = i
		}
	}
	// Every bucket member up to last was taken, so what remains there is
	// exactly the other buckets' requests; compact them back to front.
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

// remove deletes one request from anywhere in the queue, preserving the
// order of the survivors, and reports whether it was present. Request
// cancellation (hedge losers) is the only caller; it is O(queue length).
func (q *queue) remove(r *Request) bool {
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

// maybeCompact reclaims the dead prefix once it dominates the backing array.
func (q *queue) maybeCompact() {
	if q.head > 1024 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
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

// newScheduler builds the policy's scheduler. The packing window bounds
// the per-batch queue scan (and how far a request can be overtaken).
func newScheduler(p Policy, window int) (scheduler, error) {
	switch p {
	case FCFS:
		return fcfsScheduler{}, nil
	case Packed:
		return packedScheduler{window: window}, nil
	}
	return nil, fmt.Errorf("serve: unknown scheduler policy %d", int(p))
}
