package cluster

import (
	"fmt"
	"strings"

	"github.com/ais-snu/localut/internal/serve"
)

// RouterPolicy selects how arriving requests are spread over the fleet.
type RouterPolicy int

const (
	// RoundRobin cycles through the routable instances in ID order.
	RoundRobin RouterPolicy = iota
	// LeastOutstanding sends each request to the instance with the fewest
	// admitted-but-unfinished requests (ties to the lowest ID).
	LeastOutstanding
	// WeightedFreeKV sends each request to the instance with the most KV
	// capacity left after its current queued+live demand — the
	// capacity-axis-aware router for decode-heavy fleets (ties to the
	// least outstanding, then lowest ID).
	WeightedFreeKV
	// ShapeAffinity hashes the request's padded-length bucket over the
	// routable instances, so same-shape requests land on the same
	// appliance and the packed scheduler forms uniform batches with fewer
	// distinct forward-pass shapes fleet-wide.
	ShapeAffinity
)

var routerNames = [...]string{"round-robin", "least-outstanding", "weighted-kv", "shape-affinity"}

// String names the policy ("round-robin", "least-outstanding",
// "weighted-kv", "shape-affinity").
func (p RouterPolicy) String() string {
	if p >= 0 && int(p) < len(routerNames) {
		return routerNames[p]
	}
	return fmt.Sprintf("RouterPolicy(%d)", int(p))
}

// ParseRouterPolicy parses a router name, case-insensitively.
func ParseRouterPolicy(s string) (RouterPolicy, error) {
	for i, n := range routerNames {
		if strings.EqualFold(s, n) {
			return RouterPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown router %q (want round-robin, least-outstanding, weighted-kv or shape-affinity)", s)
}

// router picks the target instance for one admitted request among the
// routable members: cs.active, non-empty and ordered by instance ID, which
// cs.load files by outstanding count. Implementations must be deterministic
// pure functions of that set, the request and their own internal counters.
type router interface {
	pick(cs *csim, r *serve.Request) *member
}

func newRouter(p RouterPolicy) (router, error) {
	switch p {
	case RoundRobin:
		return &rrRouter{}, nil
	case LeastOutstanding:
		return leastOutstandingRouter{}, nil
	case WeightedFreeKV:
		return freeKVRouter{}, nil
	case ShapeAffinity:
		return shapeAffinityRouter{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown router policy %d", int(p))
}

type rrRouter struct {
	n int
}

func (r *rrRouter) pick(cs *csim, _ *serve.Request) *member {
	m := cs.active[r.n%len(cs.active)]
	r.n++
	return m
}

type leastOutstandingRouter struct{}

// pick reads the load index: the lowest ID among the members with the
// fewest outstanding requests, at a cost that does not grow with the fleet.
func (leastOutstandingRouter) pick(cs *csim, _ *serve.Request) *member {
	return cs.members[cs.load.least(-1)]
}

type freeKVRouter struct{}

// pick scans the routable list: free KV moves with every decode step of
// every live request, so there is no small count to file members under.
func (freeKVRouter) pick(cs *csim, _ *serve.Request) *member {
	best := cs.active[0]
	for _, m := range cs.active[1:] {
		switch free, bestFree := m.inst.KVFreeBytes(), best.inst.KVFreeBytes(); {
		case free > bestFree:
			best = m
		case free == bestFree && m.inst.Outstanding() < best.inst.Outstanding():
			best = m
		}
	}
	return best
}

type shapeAffinityRouter struct{}

func (shapeAffinityRouter) pick(cs *csim, r *serve.Request) *member {
	quantum := cs.active[0].inst.Cfg.TokenQuantum
	bucket := r.Padded / quantum
	return cs.active[bucket%len(cs.active)]
}
