package cluster

import (
	"fmt"
	"math"
	"strings"
)

// AdmissionPolicy selects the cluster's admission controller.
type AdmissionPolicy int

const (
	// AdmitAll admits every arrival (the zero value).
	AdmitAll AdmissionPolicy = iota
	// TokenBucket rate-limits each SLO class with its own token bucket:
	// a class arriving faster than its sustained AdmitRatePerSec (beyond
	// its AdmitBurst depth) sees rejections instead of unbounded queueing.
	TokenBucket
)

var admissionNames = [...]string{"admit-all", "token-bucket"}

// String names the policy ("admit-all", "token-bucket").
func (p AdmissionPolicy) String() string {
	if p >= 0 && int(p) < len(admissionNames) {
		return admissionNames[p]
	}
	return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
}

// ParseAdmissionPolicy parses an admission-policy name, case-insensitively.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	for i, n := range admissionNames {
		if strings.EqualFold(s, n) {
			return AdmissionPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown admission policy %q (want admit-all or token-bucket)", s)
}

// bucket is one class's token bucket. It refills continuously at rate
// tokens/second up to burst, starting full; each admission spends one
// token. Refill is a pure function of elapsed simulated time, so
// admission decisions are deterministic.
type bucket struct {
	rate, burst float64
	level, last float64
}

func newBucket(rate, burst float64) *bucket {
	return &bucket{rate: rate, burst: burst, level: burst}
}

func (b *bucket) admit(now float64) bool {
	b.level = math.Min(b.burst, b.level+(now-b.last)*b.rate)
	b.last = now
	if b.level >= 1 {
		b.level--
		return true
	}
	return false
}
