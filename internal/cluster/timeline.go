package cluster

// Timeline event kinds. One ordered stream carries the fleet-state
// transitions — autoscaler actions, fault injections/repairs, domain
// outages and straggler windows — so a crash and the scale-up it triggers
// read in order, from one schema, through one rendering path. Its length
// depends on the chaos plan, never on the request count: per-request
// hedge and KV-shed detail is in the report counters and the obs trace
// (-trace-out).
const (
	// KindScale marks autoscaler activity: "tick", "up-start",
	// "up-active", "drain-start", "down".
	KindScale = "scale"
	// KindFault marks fault injection and recovery: "crash", "repair",
	// "degrade", "replica-repair".
	KindFault = "fault"
	// KindDomain marks correlated failure-domain activity: "outage" (every
	// member of the domain crashes at once) and "repair" (the domain-wide
	// repair window closes).
	KindDomain = "domain-outage"
	// KindStraggler marks gray-failure windows: "start" opens a slowdown
	// window on a member, "end" closes it.
	KindStraggler = "straggler"
)

// TimelineEvent is one entry of the unified fleet timeline
// (localut.ClusterTimelineEvent): autoscaler actions under KindScale,
// fault injection and recovery under KindFault, correlated outages under
// KindDomain and gray-failure windows under KindStraggler. Events are
// appended in event-loop order, so the slice is time-ordered and
// deterministic.
type TimelineEvent struct {
	Seconds float64 `json:"t_s"`
	Kind    string  `json:"kind"`
	Action  string  `json:"action"`
	// Instance is the affected member (-1 for fleet-level entries such as
	// autoscaler ticks); Replica is the affected replica for degraded-mode
	// faults (-1 otherwise).
	Instance int `json:"instance"`
	Replica  int `json:"replica"`
	// Active is the routable-instance count after the event.
	Active int `json:"active"`
	// P99 and Samples describe the autoscaler window behind a tick.
	P99     float64 `json:"p99_s,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// RecoverSeconds is the crash-to-repair outage a "repair" entry ends,
	// including the LUT re-materialization surcharge.
	RecoverSeconds float64 `json:"recover_s,omitempty"`
	// Domain is the failure domain behind a KindDomain entry; meaningful
	// only there (0 elsewhere, and domain 0 omits the field).
	Domain int `json:"domain,omitempty"`
}
