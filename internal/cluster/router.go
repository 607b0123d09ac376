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

// router picks the target instance for one admitted request. The routable
// slice is non-empty and ordered by instance ID; implementations must be
// deterministic pure functions of that slice, the request and their own
// internal counters.
type router interface {
	pick(routable []*member, r *serve.Request) *member
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

func (r *rrRouter) pick(routable []*member, _ *serve.Request) *member {
	m := routable[r.n%len(routable)]
	r.n++
	return m
}

type leastOutstandingRouter struct{}

func (leastOutstandingRouter) pick(routable []*member, _ *serve.Request) *member {
	best := routable[0]
	for _, m := range routable[1:] {
		if m.inst.Outstanding() < best.inst.Outstanding() {
			best = m
		}
	}
	return best
}

type freeKVRouter struct{}

func (freeKVRouter) pick(routable []*member, _ *serve.Request) *member {
	best := routable[0]
	for _, m := range routable[1:] {
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

func (shapeAffinityRouter) pick(routable []*member, r *serve.Request) *member {
	quantum := routable[0].inst.Cfg.TokenQuantum
	bucket := r.Padded / quantum
	return routable[bucket%len(routable)]
}
