package serve

import (
	"fmt"
	"math"
	"sync"

	"github.com/ais-snu/localut/internal/audit"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/energy"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/trace"
	"github.com/ais-snu/localut/internal/workload"
)

// kvBytesPerElem is the assumed KV-cache element width (fp16): each cached
// token holds a key and a value vector per layer.
const kvBytesPerElem = 2

// Config describes one serving simulation. Zero fields take the defaults
// documented on each; exactly one arrival source is active: ArrivalTimes
// if set, else a closed loop when Clients > 0, else open-loop Poisson at
// RatePerSec.
type Config struct {
	Model   dnn.ModelConfig
	Fmt     quant.Format
	Variant kernels.Variant

	// Engine is the appliance's base engine (nil = testbed defaults). It is
	// cloned and forced into cycles-only mode; the clone's rank count is
	// divided across Replicas.
	Engine *gemm.Engine
	// Energy prices each batch's meter (zero value = energy.Default()).
	Energy energy.Model

	// Replicas is the number of independent serving groups the appliance's
	// ranks are split into (integer division: remainder ranks stay idle);
	// each replica serves one batch at a time (default 4, must not exceed
	// the rank count).
	Replicas int

	// RatePerSec is the open-loop Poisson arrival rate.
	RatePerSec float64
	// Clients switches to a closed loop: this many clients, each issuing
	// its next request ThinkSeconds (mean, exponential) after its previous
	// one completes.
	Clients      int
	ThinkSeconds float64 // closed-loop mean think time (default 0.1)
	// ArrivalTimes replays an explicit trace of arrival timestamps
	// (seconds, need not be sorted).
	ArrivalTimes []float64

	// DurationSeconds is the arrival window; requests already admitted are
	// drained afterwards (default 60).
	DurationSeconds float64
	// Seed drives every sampler (default 1).
	Seed int64

	// MaxBatch bounds requests per batch — for prefill passes and for the
	// live decode batch of a replica alike (default 8).
	MaxBatch int
	// Scheduler picks FCFS (the zero value) or Packed.
	Scheduler Policy
	// MaxQueue bounds the admission queue; Admit refuses (and the traffic
	// layer reroutes or sheds) beyond it (default 0: unbounded).
	MaxQueue int
	// KVPolicy selects how the per-replica KV budget is treated: KVGauge
	// (the zero value) reports only, KVStall stalls prefill admission at
	// the budget, KVShed drops what does not fit.
	KVPolicy KVPolicy

	// MinTokens/MaxTokens/MeanTokens parameterize the request length
	// distribution (defaults 16 / 256 / the model's SeqLen, clamped).
	MinTokens, MaxTokens int
	MeanTokens           float64
	// TokenQuantum is the shape-padding bucket: request lengths, batch
	// token totals and decode-step contexts round up to it, bounding the
	// distinct forward-pass shapes the oracle must simulate (default 64).
	TokenQuantum int

	// OutTokens fixes the output length of every request on decoder models
	// (default 0: prefill-only serving). Ignored when OutTokensMean is set.
	OutTokens int
	// OutTokensMean switches to sampled output lengths: each request draws
	// its output length from a bounded shifted-exponential distribution
	// over [1, OutTokensMax] with this mean (decoder models only).
	OutTokensMean float64
	// OutTokensMax caps sampled output lengths (default 4*OutTokensMean).
	OutTokensMax int

	// Recorder receives request-lifecycle and batch-pass trace events;
	// Metrics samples gauges on a fixed simulated-time interval. Both are
	// observability hooks, nil by default — a nil hook costs one nil check
	// per call site. The caller owns export (the recorder's WriteJSON or
	// Close, the sampler's WriteCSV or WriteJSON) after Run.
	Recorder *obs.Recorder
	Metrics  *obs.Metrics
}

// NormalizeInstance fills and validates the per-instance (service-side)
// fields: model, engine, replicas, batching, length distribution, decode.
// Arrival-source fields are left untouched — the cluster simulator drives
// instances from its own traffic layer and calls this directly.
func (c Config) NormalizeInstance() (Config, error) {
	// Every float check is written so that NaN fails it.
	switch {
	case c.Model.Layers == 0:
		return c, fmt.Errorf("serve: config has no model")
	case !(c.MeanTokens >= 0):
		return c, fmt.Errorf("serve: MeanTokens %g must be a non-negative number", c.MeanTokens)
	case !(c.OutTokensMean >= 0) || math.IsInf(c.OutTokensMean, 1):
		return c, fmt.Errorf("serve: OutTokensMean %g must be a non-negative finite number", c.OutTokensMean)
	}
	if c.Engine == nil {
		c.Engine = gemm.NewEngine()
	}
	if c.Energy == (energy.Model{}) {
		c.Energy = energy.Default()
	}
	if c.Replicas == 0 {
		c.Replicas = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MinTokens == 0 {
		c.MinTokens = 16
	}
	if c.MaxTokens == 0 {
		c.MaxTokens = 256
	}
	if c.MeanTokens == 0 {
		c.MeanTokens = float64(c.Model.SeqLen)
	}
	if c.MeanTokens < float64(c.MinTokens) {
		c.MeanTokens = float64(c.MinTokens)
	}
	if c.MeanTokens > float64(c.MaxTokens) {
		c.MeanTokens = float64(c.MaxTokens)
	}
	if c.TokenQuantum == 0 {
		c.TokenQuantum = 64
	}
	if c.OutTokensMean > 0 {
		if c.OutTokensMean < 1 {
			// A sub-token mean would otherwise clamp to a zero max and
			// silently disable decode the caller asked for.
			return c, fmt.Errorf("serve: output-length mean %g must be at least 1 token (or 0 to disable)",
				c.OutTokensMean)
		}
		if c.OutTokensMax == 0 {
			c.OutTokensMax = int(4 * c.OutTokensMean)
		}
		if c.OutTokensMean > float64(c.OutTokensMax) {
			c.OutTokensMean = float64(c.OutTokensMax)
		}
	}

	switch {
	case c.Replicas < 0 || c.MaxBatch < 0 || c.TokenQuantum < 0:
		return c, fmt.Errorf("serve: negative replica/batch/quantum configuration")
	case c.MaxQueue < 0:
		return c, fmt.Errorf("serve: negative queue bound %d", c.MaxQueue)
	case c.KVPolicy < KVGauge || c.KVPolicy > KVShed:
		return c, fmt.Errorf("serve: unknown KV policy %d", int(c.KVPolicy))
	case c.Replicas > c.Engine.Cfg.Ranks:
		return c, fmt.Errorf("serve: %d replicas exceed the appliance's %d ranks",
			c.Replicas, c.Engine.Cfg.Ranks)
	case c.OutTokens < 0:
		return c, fmt.Errorf("serve: %d decode tokens", c.OutTokens)
	case c.OutTokensMax < 0:
		return c, fmt.Errorf("serve: negative OutTokensMax %d", c.OutTokensMax)
	case (c.OutTokens > 0 || c.OutTokensMean > 0) && !c.Model.Decoder:
		return c, fmt.Errorf("serve: %s is not a decoder model (OutTokens must be 0)", c.Model.Name)
	}
	return c, nil
}

// withDefaults fills unset fields and validates the result, including the
// arrival source the single-appliance loop needs.
func (c Config) withDefaults() (Config, error) {
	c, err := c.NormalizeInstance()
	if err != nil {
		return c, err
	}
	if c.DurationSeconds == 0 {
		if len(c.ArrivalTimes) > 0 {
			for _, t := range c.ArrivalTimes {
				if t > c.DurationSeconds {
					c.DurationSeconds = t
				}
			}
		} else {
			c.DurationSeconds = 60
		}
	}
	if c.ThinkSeconds == 0 {
		c.ThinkSeconds = 0.1
	}
	switch {
	case !(c.DurationSeconds > 0) || math.IsInf(c.DurationSeconds, 1):
		return c, fmt.Errorf("serve: DurationSeconds %g must be a positive finite number", c.DurationSeconds)
	case len(c.ArrivalTimes) == 0 && c.Clients == 0 && c.RatePerSec <= 0:
		return c, fmt.Errorf("serve: no arrival source (set RatePerSec, Clients or ArrivalTimes)")
	case c.Clients < 0:
		return c, fmt.Errorf("serve: %d clients", c.Clients)
	}
	return c, nil
}

// Stats summarizes one latency population in seconds.
type Stats struct {
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	Mean float64 `json:"mean_s"`
	Max  float64 `json:"max_s"`
}

// StatsOf computes the summary; samples arrive in completion order, so the
// mean's float accumulation order is fixed and the result reproducible.
func StatsOf(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	qs := trace.Quantiles(vals, 0.5, 0.95, 0.99)
	s := Stats{P50: qs[0], P95: qs[1], P99: qs[2]}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	return s
}

// HistStats summarizes a streaming log-bucket histogram: quantiles come
// from the buckets (within one bucket width of the sorted estimate), Mean
// and Max are exact. This is the bounded-memory replacement for keeping
// every latency sample and sorting at report time.
func HistStats(h *trace.LogHistogram) Stats {
	if h == nil || h.N == 0 {
		return Stats{}
	}
	return Stats{
		P50:  h.Quantile(0.5),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Mean: h.Mean(),
		Max:  h.Max(),
	}
}

// Report is the outcome of one serving simulation. Reports are
// bit-reproducible: the same config, seed and parallelism-agnostic engine
// yield an identical Report, and an identical JSON encoding, on every run.
// The root package exports this type as localut.ServeReport, so the field
// names, order and tags here are the public JSON schema.
type Report struct {
	Model     string `json:"model"`
	Format    string `json:"format"`
	Design    string `json:"design"`
	Scheduler string `json:"scheduler"`
	Replicas  int    `json:"replicas"`

	Requests  int `json:"requests"`  // admitted during the arrival window
	Completed int `json:"completed"` // all admitted requests are drained
	// Shed counts admitted requests the appliance dropped (bounded-queue
	// refusals, deadline expiry, KV-budget sheds); zero in the default
	// unbounded/gauge configuration. Requests == Completed + Shed after
	// the drain.
	Shed    int `json:"shed,omitempty"`
	Batches int `json:"batches"` // prefill passes
	// DecodeSteps counts token-level decode forward passes across replicas.
	DecodeSteps int `json:"decode_steps"`

	MeanBatchSize    float64 `json:"mean_batch_size"`
	DurationSeconds  float64 `json:"duration_s"`       // arrival window
	MakespanSeconds  float64 `json:"makespan_s"`       // last completion time
	OfferedPerSec    float64 `json:"offered_per_s"`    // Requests / DurationSeconds
	ThroughputPerSec float64 `json:"throughput_per_s"` // Completed / MakespanSeconds

	Queue   Stats `json:"queue"`   // admission to batch start
	Service Stats `json:"service"` // batch start to completion
	Latency Stats `json:"latency"` // admission to completion
	// TTFT is time-to-first-token: admission to prefill completion
	// (decode-enabled runs only; zero otherwise).
	TTFT Stats `json:"ttft"`
	// TPOT is time-per-output-token: each request's post-first-token
	// generation time divided by its remaining tokens (requests with at
	// least two output tokens).
	TPOT Stats `json:"tpot"`

	// RankUtilization is the mean busy fraction of the replicas over the
	// makespan; ReplicaUtilization itemizes it.
	RankUtilization    float64   `json:"rank_utilization"`
	ReplicaUtilization []float64 `json:"replica_utilization"`
	// PIMUtilization is the PIM-kernel share of that busy time — the rest
	// is host quant/pack work and transfers.
	PIMUtilization float64 `json:"pim_utilization"`

	TokensIn     int64 `json:"tokens_in"`     // sampled prompt tokens
	TokensPadded int64 `json:"tokens_padded"` // prompt tokens actually priced after shape padding
	TokensOut    int64 `json:"tokens_out"`    // generated tokens (decode-enabled runs)
	// TokensPerSec is the total token throughput over the makespan,
	// prompt and generated tokens both counted.
	TokensPerSec float64 `json:"tokens_per_s"`

	// KVPeakBytes is the largest KV-cache footprint any replica held
	// during a decode step (fp16 K+V per layer per cached token);
	// KVCapacityBytes is one replica's DRAM-bank capacity left after the
	// LUT budget — the paper's capacity axis, contended here by LUTs and
	// KV state. KVPeakUtilization is their ratio.
	KVPeakBytes       int64   `json:"kv_peak_bytes"`
	KVCapacityBytes   int64   `json:"kv_capacity_bytes"`
	KVPeakUtilization float64 `json:"kv_peak_utilization"`
	// KVMeanBytes is the time-weighted mean KV footprint per replica over
	// the makespan (the peak alone hides sustained pressure);
	// KVMeanUtilization is its share of capacity.
	KVMeanBytes       float64 `json:"kv_mean_bytes"`
	KVMeanUtilization float64 `json:"kv_mean_utilization"`

	EnergyJ           float64 `json:"energy_j"`
	EnergyPerRequestJ float64 `json:"energy_per_request_j"`

	// DistinctForwardSims counts the planner executions behind the whole
	// run — the memoization that makes million-request simulation cheap.
	DistinctForwardSims int `json:"distinct_forward_sims"`

	// LatencyHistogram buckets every completed request's total latency
	// into 20 equal-width bins over [0, LatencyHistogramHi), the upper
	// edge sitting just above Latency.Max (both empty when nothing
	// completed).
	LatencyHistogram   []int64 `json:"latency_histogram,omitempty"`
	LatencyHistogramHi float64 `json:"latency_histogram_hi_s,omitempty"`
}

// evArrival is the traffic layer's event kind; completion kinds come from
// the Instance (CompletionPrefill, CompletionStep).
const evArrival = 0

// laneArrival is the ordered event lane (EventQueue.PushOrdered) of the
// open-loop arrival stream and of a replayed trace, which are created in
// time order (an unsorted trace falls through to the heap entry by entry).
// Closed-loop client re-arms are not time-ordered and use Push.
const laneArrival = 0

// sim is the traffic layer of one single-appliance run: arrivals, length
// sampling and latency aggregation around one Instance.
type sim struct {
	cfg  Config
	inst *Instance

	events EventQueue
	slab   *RequestSlab

	arrivals *workload.ArrivalSampler // open loop
	lengths  *workload.LengthSampler
	outLens  *workload.LengthSampler  // nil = fixed OutTokens per request
	think    *workload.ArrivalSampler // closed loop

	requests int // arrivals so far, each admitted; the next request's ID
	shed     int

	// Latency populations aggregate into bounded-memory streaming
	// histograms as requests complete — exact count/mean/max, quantiles
	// from the buckets.
	qLat, sLat, tLat *trace.LogHistogram
	ttft, tpot       *trace.LogHistogram
	completed        int
	makespan         float64
}

// newRequest admits a request arriving at t for the given closed-loop
// client (-1 for open-loop/trace), sampling its prompt and output lengths.
func (s *sim) newRequest(t float64, client int) *Request {
	tok := s.lengths.Next()
	out := s.cfg.OutTokens
	if s.outLens != nil {
		out = s.outLens.Next()
	}
	r := s.slab.New(Request{ID: s.requests, Client: client, Tokens: tok, Padded: RoundUp(tok, s.cfg.TokenQuantum), OutLen: out, Arrive: t})
	s.requests++
	return r
}

// runBuffers is what a drained serve.Run hands the next one through
// runPool: its slab, with every slot on the free list and the counters
// reset, and its instance queue's backing array, emptied. A sweep's first
// probe carves the slots and grows the array its peak needs, and the later
// probes reuse them instead of allocating per request again. Only a run
// whose slab balanced without misuse puts its buffers back, so a pooled
// slab holds no slot a request still occupies; New overwrites a slot
// whole, so a reused one serves exactly as a fresh one would.
type runBuffers struct {
	slab  RequestSlab
	items []*Request
}

// runPool holds runBuffers between runs; the GC may empty it at any time,
// which costs the next run its allocations, never its results.
var runPool = sync.Pool{New: func() any { return new(runBuffers) }}

// RoundUp rounds v up to a multiple of quantum — the shape-padding rule
// for prompt lengths and decode contexts.
func RoundUp(v, quantum int) int {
	return (v + quantum - 1) / quantum * quantum
}

// Run executes the simulation to completion: arrivals stop at the duration
// cutoff and the queue drains.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:  cfg,
		qLat: trace.NewLogHistogram(), sLat: trace.NewLogHistogram(),
		tLat: trace.NewLogHistogram(),
		ttft: trace.NewLogHistogram(), tpot: trace.NewLogHistogram(),
	}
	if s.inst, err = NewInstance(cfg, 0, nil); err != nil {
		return nil, err
	}
	bufs := runPool.Get().(*runBuffers)
	s.slab, s.inst.q.items = &bufs.slab, bufs.items
	s.inst.SetSlab(s.slab)
	rec := cfg.Recorder
	s.inst.SetRecorder(rec)
	rec.Process(0, "traffic")
	s.inst.OnFirstToken = func(r *Request, now float64) {
		s.ttft.Add(now - r.Arrive)
	}
	s.inst.OnFinish = func(r *Request, now float64) {
		s.qLat.Add(r.Start - r.Arrive)
		s.sLat.Add(r.Finish - r.Start)
		s.tLat.Add(r.Finish - r.Arrive)
		s.completed++
		if r.OutLen > 1 {
			s.tpot.Add((r.Finish - r.FirstTok) / float64(r.OutLen-1))
		}
		if rec.Sampled(r.ID) {
			rec.EndAsync(0, "req", r.ID, "request", now)
		}
		if now > s.makespan {
			s.makespan = now
		}
		if s.think != nil && r.Client >= 0 {
			if t := now + s.think.Next(); t <= s.cfg.DurationSeconds {
				s.events.Push(&Event{At: t, Kind: evArrival, Arg: int32(r.Client)})
			}
		}
		s.slab.Release(r, HoldTraffic)
	}
	s.inst.OnShed = func(r *Request, now float64, reason ShedReason) {
		if rec.Sampled(r.ID) {
			rec.Instant(0, 0, "shed", now, obs.Num("id", float64(r.ID)), obs.Num("reason", float64(reason)))
			rec.EndAsync(0, "req", r.ID, "request", now)
		}
		s.slab.Release(r, HoldTraffic)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Bind(
			serveMetricsCols(cfg.Replicas),
			func(now float64) []float64 { return s.sampleMetrics() },
		)
	}
	if s.lengths, err = workload.NewLengthSampler(cfg.MinTokens, cfg.MaxTokens, cfg.MeanTokens, cfg.Seed+1); err != nil {
		return nil, err
	}
	if cfg.OutTokensMean > 0 {
		if s.outLens, err = workload.NewLengthSampler(1, cfg.OutTokensMax, cfg.OutTokensMean, cfg.Seed+3); err != nil {
			return nil, err
		}
	}

	// Seed the arrival process.
	switch {
	case len(cfg.ArrivalTimes) > 0:
		for i, t := range cfg.ArrivalTimes {
			// Written so that a NaN fails: it is below nothing, and one
			// arrival at t = NaN poisons every latency sample of the run.
			if !(t >= 0) || math.IsInf(t, 1) {
				return nil, fmt.Errorf("serve: ArrivalTimes[%d] = %g must be a finite non-negative time", i, t)
			}
			if t > cfg.DurationSeconds {
				// The arrival window applies to every source; with an unset
				// duration withDefaults derived it from the trace maximum,
				// so nothing is dropped in that case.
				continue
			}
			s.events.PushOrdered(laneArrival, &Event{At: t, Kind: evArrival, Arg: -1})
		}
	case cfg.Clients > 0:
		if s.think, err = workload.NewArrivalSampler(1/cfg.ThinkSeconds, cfg.Seed+2); err != nil {
			return nil, fmt.Errorf("serve: think time %g s: %w", cfg.ThinkSeconds, err)
		}
		for c := 0; c < cfg.Clients; c++ {
			if t := s.think.Next(); t <= cfg.DurationSeconds {
				s.events.Push(&Event{At: t, Kind: evArrival, Arg: int32(c)})
			}
		}
	default:
		if s.arrivals, err = workload.NewArrivalSampler(cfg.RatePerSec, cfg.Seed); err != nil {
			return nil, err
		}
		if t := s.arrivals.Next(); t <= cfg.DurationSeconds {
			s.events.PushOrdered(laneArrival, &Event{At: t, Kind: evArrival, Arg: -1})
		}
	}

	// The event loop.
	for s.events.Len() > 0 {
		ev := s.events.Pop()
		now := ev.At
		// Metrics sample before the event applies: the pre-event state is
		// exactly the simulator's state at every boundary since the last
		// event.
		cfg.Metrics.Advance(now)
		switch ev.Kind {
		case evArrival:
			r := s.newRequest(now, int(ev.Arg))
			admitted := s.inst.Admit(r)
			if rec.Sampled(r.ID) {
				rec.BeginAsync(0, "req", r.ID, "request", now,
					obs.Num("tokens", float64(r.Tokens)), obs.Num("out", float64(r.OutLen)))
				if !admitted {
					rec.Instant(0, 0, "reject", now, obs.Num("id", float64(r.ID)))
					rec.EndAsync(0, "req", r.ID, "request", now)
				}
			}
			if !admitted {
				s.shed++ // single appliance: nowhere to reroute
				s.slab.Release(r, HoldTraffic)
			}
			if s.arrivals != nil {
				if t := now + s.arrivals.Next(); t <= cfg.DurationSeconds {
					s.events.PushOrdered(laneArrival, &Event{At: t, Kind: evArrival, Arg: -1})
				}
			}
		case CompletionPrefill, CompletionStep:
			// Nothing in this loop voids a pass, so the epoch always matches;
			// the check stays because it is the condition under which the
			// replica's in-flight buffer is this completion's batch.
			rep := int(ev.Arg)
			if int(ev.Epoch) != s.inst.ReplicaEpoch(rep) {
				break
			}
			if ev.Kind == CompletionPrefill {
				s.inst.PrefillDone(rep, s.inst.Inflight(rep), now)
			} else {
				s.inst.StepDone(rep, now)
			}
		}
		if err := s.events.Dispatch(s.inst, now); err != nil {
			return nil, err
		}
	}
	cfg.Metrics.Finish(s.makespan)
	// The run audits its books as a one-member fleet: every arrival is
	// admitted and either completes (there are no deadlines, so every
	// completion is good) or is shed by a full queue or the KV budget.
	// Books that do not balance, or a NaN or infinite latency, are a bug.
	nonFinite := s.qLat.NonFinite + s.sLat.NonFinite + s.tLat.NonFinite + s.ttft.NonFinite + s.tpot.NonFinite
	f := &audit.Fleet{
		Offered: s.requests, Admitted: s.requests,
		Completed: s.completed, Good: s.completed,
		Shed: s.shed + s.inst.shed, ShedQueueFull: s.shed, ShedKV: s.inst.shed,
		Instances: []audit.Instance{s.inst.Account(0, s.makespan, 0)},
	}
	if err := audit.Err("serve", append(audit.CheckFleet(f), DrainChecks(s.slab, nonFinite)...)); err != nil {
		return nil, err
	}
	// The run is drained and balanced: every slot is free and every queue
	// entry nil, so both buffers go to the next run and s keeps neither.
	bufs.slab.news, bufs.slab.frees = 0, 0
	bufs.items = s.inst.q.items[:0]
	s.inst.q.items, s.inst.q.head, s.inst.q.slab, s.slab = nil, 0, nil, nil
	runPool.Put(bufs)
	return s.report(), nil
}

// serveMetricsCols names the single-appliance metrics columns: queue and
// batch gauges, per-replica KV bytes, busy fraction and the cumulative
// service counters.
func serveMetricsCols(replicas int) []string {
	cols := []string{"queue_depth", "live", "busy_frac", "admitted", "completed", "shed"}
	for r := 0; r < replicas; r++ {
		cols = append(cols, fmt.Sprintf("kv_bytes_r%d", r))
	}
	return cols
}

// sampleMetrics reads the gauges serveMetricsCols names.
func (s *sim) sampleMetrics() []float64 {
	inst := s.inst
	vals := []float64{
		float64(inst.QueueLen()),
		float64(inst.LiveCount()),
		float64(inst.BusyReplicas()) / float64(s.cfg.Replicas),
		float64(inst.admitted),
		float64(inst.finished),
		float64(s.shed + inst.shed),
	}
	for r := 0; r < s.cfg.Replicas; r++ {
		vals = append(vals, float64(inst.repKVTokens[r]*inst.kvPerToken))
	}
	return vals
}

// report assembles the final metrics.
func (s *sim) report() *Report {
	cfg := &s.cfg
	inst := s.inst
	r := &Report{
		Model:     cfg.Model.Name,
		Format:    cfg.Fmt.Name(),
		Design:    cfg.Variant.String(),
		Scheduler: cfg.Scheduler.String(),
		Replicas:  cfg.Replicas,

		Requests:        s.requests,
		Completed:       s.completed,
		Shed:            s.shed + inst.shed,
		Batches:         inst.batches,
		DecodeSteps:     inst.steps,
		DurationSeconds: cfg.DurationSeconds,
		MakespanSeconds: s.makespan,

		Queue:   HistStats(s.qLat),
		Service: HistStats(s.sLat),
		Latency: HistStats(s.tLat),
		TTFT:    HistStats(s.ttft),
		TPOT:    HistStats(s.tpot),

		TokensIn:     inst.tokensIn,
		TokensPadded: inst.tokensPadded,
		TokensOut:    inst.tokensOut,
		EnergyJ:      inst.energyJ,

		KVPeakBytes:     inst.kvPeak,
		KVCapacityBytes: inst.kvCapacity,

		DistinctForwardSims: inst.oracle.DistinctSims(),
	}
	if r.KVCapacityBytes > 0 {
		r.KVPeakUtilization = float64(r.KVPeakBytes) / float64(r.KVCapacityBytes)
	}
	r.OfferedPerSec = float64(r.Requests) / cfg.DurationSeconds
	if inst.batches > 0 {
		r.MeanBatchSize = float64(inst.batchReqs) / float64(inst.batches)
	}
	if s.makespan > 0 {
		r.ThroughputPerSec = float64(r.Completed) / s.makespan
		r.TokensPerSec = float64(inst.tokensIn+inst.tokensOut) / s.makespan
		r.ReplicaUtilization = make([]float64, cfg.Replicas)
		var totalBusy float64
		for i, b := range inst.busy {
			r.ReplicaUtilization[i] = b / s.makespan
			totalBusy += b
		}
		r.RankUtilization = totalBusy / (float64(cfg.Replicas) * s.makespan)
		if totalBusy > 0 {
			r.PIMUtilization = inst.pimBusy / totalBusy
		}
		r.KVMeanBytes = inst.KVByteSeconds(s.makespan) / (s.makespan * float64(cfg.Replicas))
		if r.KVCapacityBytes > 0 {
			r.KVMeanUtilization = r.KVMeanBytes / float64(r.KVCapacityBytes)
		}
	}
	if r.Completed > 0 {
		r.EnergyPerRequestJ = inst.energyJ / float64(r.Completed)
		// Nextafter keeps the maximum inside the half-open top bucket.
		hi := math.Nextafter(r.Latency.Max, math.Inf(1))
		if hist, err := s.tLat.ToFixed(0, hi, 20); err == nil {
			r.LatencyHistogram, r.LatencyHistogramHi = hist.Counts, hist.Hi
		}
	}
	return r
}
