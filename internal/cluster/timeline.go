package cluster

// Timeline event kinds. One ordered stream carries autoscaler actions,
// fault injections/repairs and KV-pressure sheds, replacing the separate
// scaling and fault timelines: a crash and the scale-up it triggers read
// in order, from one schema, through one rendering path.
const (
	// KindScale marks autoscaler activity: "tick", "up-start",
	// "up-active", "drain-start", "down".
	KindScale = "scale"
	// KindFault marks fault injection and recovery: "crash", "repair",
	// "degrade", "replica-repair".
	KindFault = "fault"
	// KindKV marks KV-pressure sheds under the KVShed policy ("kv-shed").
	KindKV = "kv"
	// KindDomain marks correlated failure-domain activity: "outage" (every
	// member of the domain crashes at once) and "repair" (the domain-wide
	// repair window closes).
	KindDomain = "domain-outage"
	// KindStraggler marks gray-failure windows: "start" opens a slowdown
	// window on a member, "end" closes it.
	KindStraggler = "straggler"
	// KindHedge marks request hedging: "issue" duplicates a slow request
	// onto a second member, "win" records the duplicate finishing first.
	KindHedge = "hedge"
)

// TimelineEvent is one entry of the unified fleet timeline
// (localut.ClusterTimelineEvent): autoscaler actions under KindScale,
// fault injection and recovery under KindFault, correlated outages under
// KindDomain, gray-failure windows under KindStraggler, hedge traffic
// under KindHedge and KV-pressure sheds under KindKV. Events are appended
// in event-loop order, so the slice is time-ordered and deterministic.
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
