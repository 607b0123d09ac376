package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
)

// testConfig is a small, fast serving run.
func testConfig() Config {
	return Config{
		Model:           dnn.BERTBase(),
		Fmt:             quant.W1A3,
		Variant:         kernels.LoCaLUT,
		RatePerSec:      50,
		DurationSeconds: 5,
		Seed:            1,
	}
}

func TestServeBasics(t *testing.T) {
	rep, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests arrived")
	}
	if rep.Completed != rep.Requests {
		t.Errorf("completed %d of %d requests (the queue must drain)", rep.Completed, rep.Requests)
	}
	if rep.Batches == 0 || rep.MeanBatchSize < 1 {
		t.Errorf("batches=%d meanBatch=%g", rep.Batches, rep.MeanBatchSize)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("suspicious latency stats %+v", rep.Latency)
	}
	if rep.Latency.Max < rep.Latency.P99 {
		t.Errorf("max %g < p99 %g", rep.Latency.Max, rep.Latency.P99)
	}
	if rep.EnergyJ <= 0 || rep.EnergyPerRequestJ <= 0 {
		t.Errorf("energy not priced: %g total, %g per request", rep.EnergyJ, rep.EnergyPerRequestJ)
	}
	if rep.RankUtilization <= 0 || rep.RankUtilization > 1 {
		t.Errorf("rank utilization %g outside (0, 1]", rep.RankUtilization)
	}
	if rep.TokensPadded < rep.TokensIn {
		t.Errorf("padded tokens %d < input tokens %d", rep.TokensPadded, rep.TokensIn)
	}
	if rep.DistinctForwardSims == 0 || rep.DistinctForwardSims > rep.Batches {
		t.Errorf("distinct sims %d vs %d batches", rep.DistinctForwardSims, rep.Batches)
	}
	if rep.MakespanSeconds < rep.DurationSeconds*0.1 {
		t.Errorf("makespan %g implausibly short", rep.MakespanSeconds)
	}
}

// TestServeDeterministic pins the tentpole invariant: same seed + config
// => bit-identical report, run to run and at every parallelism level.
func TestServeDeterministic(t *testing.T) {
	base, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", base, again)
	}
	for _, par := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.Engine = gemm.NewEngine()
		cfg.Engine.Exec.Parallelism = par
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("parallelism %d diverged:\n%+v\n%+v", par, base, rep)
		}
	}
}

// TestServeRunIndependentOfPriorRuns pins what handing a drained run's
// slab and queue array to the next run must not change: a report depends
// on its own config alone, never on which runs came before it or ran
// beside it. Each config's report JSON must be byte-identical whether the
// list runs forward, in reverse or from concurrent goroutines.
func TestServeRunIndependentOfPriorRuns(t *testing.T) {
	overloaded := testConfig()
	overloaded.RatePerSec = 300 // about ten times capacity: the queue peaks near 600
	overloaded.DurationSeconds = 2

	closed := testConfig()
	closed.Clients = 6

	shedding := testConfig()
	shedding.MaxQueue = 12
	shedding.ArrivalTimes = make([]float64, 300)
	for i := range shedding.ArrivalTimes {
		shedding.ArrivalTimes[i] = float64(i%100) * 0.01 // three bursts over one second
	}

	decode := decodeConfig()
	decode.Replicas = 2

	cfgs := []Config{overloaded, closed, shedding, decode}
	runJSON := func(cfg Config) ([]byte, error) {
		rep, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		b, err := runJSON(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		want[i] = b
	}
	if !strings.Contains(string(want[2]), `"shed"`) {
		t.Fatal("the trace replay shed nothing: MaxQueue is not exercised")
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		b, err := runJSON(cfgs[i])
		if err != nil {
			t.Fatalf("config %d in reverse: %v", i, err)
		}
		if string(b) != string(want[i]) {
			t.Errorf("config %d in reverse order diverged:\n%s\n%s", i, want[i], b)
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func(i int, cfg Config) {
				defer wg.Done()
				b, err := runJSON(cfg)
				if err != nil {
					t.Errorf("config %d concurrently: %v", i, err)
					return
				}
				if string(b) != string(want[i]) {
					t.Errorf("config %d run concurrently diverged:\n%s\n%s", i, want[i], b)
				}
			}(i, cfg)
		}
	}
	wg.Wait()
}

// TestServeRunReusesBuffers pins the cross-run handoff: a run that follows
// a drained one of the same peak takes its slab and queue array from the
// pool and allocates only its fixed per-run state (oracle, histograms),
// about 7 bytes per request here; without the handoff the second run
// carves every slot and grows the queue again, about 169.
func TestServeRunReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P keeps the pooled buffers in the P-local slot the next Get reads
	// first. Changing GOMAXPROCS starts the pool afresh, so it comes before
	// either run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig()
	cfg.RatePerSec = 400 // over ten times capacity: the queue peaks above 20,000
	cfg.DurationSeconds = 60
	cfg.Engine = gemm.NewEngine() // shared, as a sweep's probes share one
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 20000 {
		t.Fatalf("only %d requests: too few for a queue in the tens of thousands", rep.Requests)
	}
	bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Requests)
	t.Logf("second run: %d requests, %d bytes, %.2f bytes per request",
		rep.Requests, after.TotalAlloc-before.TotalAlloc, bytesPerReq)
	if bytesPerReq >= 16 {
		t.Errorf("second run allocates %.1f bytes per request, want under 16: it did not reuse the first run's slab and queue array", bytesPerReq)
	}
}

func TestServeSeedMatters(t *testing.T) {
	a, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical reports")
	}
}

func TestServeSchedulers(t *testing.T) {
	for _, pol := range []Policy{FCFS, Packed} {
		cfg := testConfig()
		cfg.Scheduler = pol
		cfg.RatePerSec = 400 // oversubscribed, so batching actually packs
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scheduler != pol.String() {
			t.Errorf("report names scheduler %q, want %q", rep.Scheduler, pol)
		}
		if rep.Completed != rep.Requests {
			t.Errorf("%v: completed %d of %d", pol, rep.Completed, rep.Requests)
		}
		if rep.MeanBatchSize < 2 {
			t.Errorf("%v: oversubscribed run batched only %g requests/batch", pol, rep.MeanBatchSize)
		}
	}
}

// TestPackedBatchesShareShape checks the packing scheduler's contract
// directly on the queue.
func TestPackedBatchesShareShape(t *testing.T) {
	q := &queue{}
	for i, pad := range []int{64, 128, 64, 192, 64, 64} {
		q.push(&Request{ID: i, Padded: pad})
	}
	batch := packedScheduler{window: 16}.pick(q, 4, nil)
	if len(batch) != 4 {
		t.Fatalf("picked %d requests, want 4", len(batch))
	}
	for _, r := range batch {
		if r.Padded != 64 {
			t.Errorf("mixed bucket in packed batch: request %d has %d", r.ID, r.Padded)
		}
	}
	if q.len() != 2 {
		t.Fatalf("queue keeps %d, want 2", q.len())
	}
	if q.at(0).ID != 1 || q.at(1).ID != 3 {
		t.Errorf("skipped requests lost their order: %d, %d", q.at(0).ID, q.at(1).ID)
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	q := &queue{}
	for i := 0; i < 5; i++ {
		q.push(&Request{ID: i, Padded: 64 * (1 + i%2)})
	}
	batch := fcfsScheduler{}.pick(q, 3, nil)
	for i, r := range batch {
		if r.ID != i {
			t.Errorf("batch[%d] = request %d", i, r.ID)
		}
	}
	if q.len() != 2 || q.at(0).ID != 3 {
		t.Error("queue head after FCFS pick is wrong")
	}
}

func TestServeClosedLoop(t *testing.T) {
	cfg := testConfig()
	cfg.RatePerSec = 0
	cfg.Clients = 4
	cfg.ThinkSeconds = 0.05
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("closed loop admitted no requests")
	}
	if rep.Completed != rep.Requests {
		t.Errorf("completed %d of %d", rep.Completed, rep.Requests)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("closed loop is not deterministic")
	}
}

func TestServeTraceReplay(t *testing.T) {
	cfg := testConfig()
	cfg.RatePerSec = 0
	cfg.ArrivalTimes = []float64{0.5, 0.1, 0.1, 2.0}
	cfg.DurationSeconds = 0 // derive from the trace
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 4 || rep.Completed != 4 {
		t.Fatalf("trace replay served %d/%d, want 4/4", rep.Completed, rep.Requests)
	}
	if rep.DurationSeconds != 2.0 {
		t.Errorf("derived duration %g, want 2", rep.DurationSeconds)
	}
}

func TestServeDecoderDecode(t *testing.T) {
	cfg := testConfig()
	cfg.Model = dnn.OPT125M()
	cfg.OutTokens = 8
	cfg.RatePerSec = 20
	cfg.DurationSeconds = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OutTokens = 0
	noDecode, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Service.Mean <= noDecode.Service.Mean {
		t.Errorf("decode added no service time: %g vs %g", rep.Service.Mean, noDecode.Service.Mean)
	}
}

// TestOracleStepMemoKeysOnCtxBucket pins the context-aware decode memo:
// two steps in the same (batch, ctx-bucket) cell share one simulation,
// while a new bucket prices a new one.
func TestOracleStepMemoKeysOnCtxBucket(t *testing.T) {
	cfg := testConfig()
	cfg.Model = dnn.OPT125M()
	cfg.OutTokens = 4
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(&cfg)
	a, err := o.decodeStep(4, 128)
	if err != nil {
		t.Fatal(err)
	}
	after := o.DistinctSims()
	b, err := o.decodeStep(4, 128)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.DistinctSims(); got != after || a != b {
		t.Errorf("same (n, ctx) cell re-simulated: sims %d -> %d", after, got)
	}
	c, err := o.decodeStep(4, 192)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.DistinctSims(); got != after+1 {
		t.Errorf("new ctx bucket did not price a new sim: %d -> %d", after, got)
	}
	if c.seconds <= a.seconds {
		t.Errorf("longer context did not cost more: %g <= %g", c.seconds, a.seconds)
	}
}

// TestOracleShapeOutOfRange pins the packed memo key's checked conversion:
// a dimension that does not fit the key is an error from the oracle, not a
// key shared with some other shape.
func TestOracleShapeOutOfRange(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(&cfg)
	for _, shape := range [][2]int{{-1, 64}, {64, -1}, {math.MaxInt32 + 1, 64}, {64, math.MaxInt32 + 1}} {
		if _, err := o.batch(shape[0], shape[1]); err == nil {
			t.Errorf("batch%v priced a shape outside the key's range", shape)
		}
		if _, err := o.decodeStep(shape[0], shape[1]); err == nil {
			t.Errorf("decodeStep%v priced a shape outside the key's range", shape)
		}
	}
	if o.DistinctSims() != 0 {
		t.Errorf("rejected shapes left %d entries in the memo", o.DistinctSims())
	}
	a, _ := newCostKey(1, 2)
	b, _ := newCostKey(2, 1)
	if a == b {
		t.Error("the key does not distinguish (1, 2) from (2, 1)")
	}
}

// TestServeNonFiniteLatencyIsAnError runs on an engine clocked so slowly
// that every pass is priced at +Inf seconds (a NaN arrival time, the older
// way here, is a validation error now: TestBadEnumsAreErrors). The
// histograms refuse the samples — they used to panic with an index out of
// range — and Run fails instead of returning statistics that silently miss
// them.
func TestServeNonFiniteLatencyIsAnError(t *testing.T) {
	cfg := testConfig()
	cfg.Engine = gemm.NewEngine()
	cfg.Engine.Cfg.ClockHz = math.SmallestNonzeroFloat64
	rep, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "NaN or infinite") {
		t.Fatalf("Run returned report %v and error %v, want a non-finite latency error", rep, err)
	}
}

// TestStepBucketingPriceBound pins the cost of context bucketing: rounding
// the mean context up to the token quantum may only overprice a step, and
// by no more than the attention cost of quantum-1 extra keys — within 25%
// for the serving configuration's defaults.
func TestStepBucketingPriceBound(t *testing.T) {
	cfg := testConfig()
	cfg.Model = dnn.OPT125M()
	cfg.OutTokens = 4
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(&cfg)
	for _, exact := range []int{65, 130, 200, 255} {
		bucketed := RoundUp(exact, cfg.TokenQuantum)
		e, err := o.decodeStep(4, exact)
		if err != nil {
			t.Fatal(err)
		}
		b, err := o.decodeStep(4, bucketed)
		if err != nil {
			t.Fatal(err)
		}
		if b.seconds < e.seconds {
			t.Errorf("ctx %d: bucketing underpriced the step: %g < %g", exact, b.seconds, e.seconds)
		}
		if b.seconds > e.seconds*1.25 {
			t.Errorf("ctx %d: bucketed price %g exceeds exact %g by more than 25%%", exact, b.seconds, e.seconds)
		}
	}
}

// decodeConfig is a small decode-heavy run with sampled output lengths.
func decodeConfig() Config {
	cfg := testConfig()
	cfg.Model = dnn.OPT125M()
	cfg.RatePerSec = 20
	cfg.DurationSeconds = 3
	cfg.OutTokensMean = 16
	cfg.OutTokensMax = 64
	return cfg
}

// TestServeDecodeTokenLevel pins the tentpole surface: a decode-enabled
// run reports TTFT, TPOT, generated-token throughput, step counts and the
// KV-footprint gauge.
func TestServeDecodeTokenLevel(t *testing.T) {
	rep, err := Run(decodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests || rep.Requests == 0 {
		t.Fatalf("served %d of %d", rep.Completed, rep.Requests)
	}
	if rep.TTFT.Mean <= 0 || rep.TTFT.P99 < rep.TTFT.P50 {
		t.Errorf("TTFT not measured: %+v", rep.TTFT)
	}
	if rep.TPOT.Mean <= 0 || rep.TPOT.P99 < rep.TPOT.P50 {
		t.Errorf("TPOT not measured: %+v", rep.TPOT)
	}
	if rep.TTFT.Mean >= rep.Latency.Mean {
		t.Errorf("TTFT mean %g not below total latency mean %g", rep.TTFT.Mean, rep.Latency.Mean)
	}
	if rep.TokensOut == 0 {
		t.Error("no generated tokens counted")
	}
	if rep.DecodeSteps == 0 {
		t.Error("no decode steps ran")
	}
	if want := float64(rep.TokensIn+rep.TokensOut) / rep.MakespanSeconds; rep.TokensPerSec != want {
		t.Errorf("TokensPerSec %g != (in+out)/makespan %g", rep.TokensPerSec, want)
	}
	if rep.KVPeakBytes <= 0 || rep.KVCapacityBytes <= 0 {
		t.Errorf("KV gauge empty: peak %d capacity %d", rep.KVPeakBytes, rep.KVCapacityBytes)
	}
	if got := float64(rep.KVPeakBytes) / float64(rep.KVCapacityBytes); rep.KVPeakUtilization != got {
		t.Errorf("KV utilization %g != peak/capacity %g", rep.KVPeakUtilization, got)
	}
}

// TestServePrefillOnlyHasNoDecodeMetrics pins that encoder-style serving
// leaves the decode metrics empty.
func TestServePrefillOnlyHasNoDecodeMetrics(t *testing.T) {
	rep, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TTFT != (Stats{}) || rep.TPOT != (Stats{}) {
		t.Errorf("prefill-only run has decode latency stats: %+v %+v", rep.TTFT, rep.TPOT)
	}
	if rep.TokensOut != 0 || rep.DecodeSteps != 0 {
		t.Errorf("prefill-only run generated tokens: out=%d steps=%d", rep.TokensOut, rep.DecodeSteps)
	}
}

// TestDecodePricesRealPromptContext is the acceptance demonstration that
// per-step pricing differs measurably from the old lump model: the lump
// priced decode at a context derived only from the model's SeqLen, so
// per-output-token time was independent of the actual prompt lengths.
// With token-level decode, long-prompt requests must decode measurably
// slower than short-prompt ones.
func TestDecodePricesRealPromptContext(t *testing.T) {
	run := func(promptLen int) *Report {
		cfg := testConfig()
		cfg.Model = dnn.OPT125M()
		cfg.RatePerSec = 0
		cfg.ArrivalTimes = []float64{0, 0, 0, 0}
		cfg.DurationSeconds = 1
		cfg.MinTokens, cfg.MaxTokens = promptLen, promptLen
		cfg.MeanTokens = float64(promptLen)
		cfg.OutTokens = 16
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	short, long := run(32), run(2048)
	if long.TPOT.Mean <= short.TPOT.Mean*1.05 {
		t.Errorf("64x longer prompts did not slow decode by even 5%%: TPOT %g vs %g — "+
			"pricing is ignoring the real per-step context", long.TPOT.Mean, short.TPOT.Mean)
	}
}

// TestServeClosedLoopDecodeRearrival pins closed-loop client re-arrival
// after completion with token-level decode: completions now happen at
// step boundaries, and each must re-arm its client's think timer.
func TestServeClosedLoopDecodeRearrival(t *testing.T) {
	cfg := decodeConfig()
	cfg.RatePerSec = 0
	cfg.Clients = 3
	cfg.ThinkSeconds = 0.02
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests <= cfg.Clients {
		t.Fatalf("clients never re-arrived after completion: %d requests from %d clients",
			rep.Requests, cfg.Clients)
	}
	if rep.Completed != rep.Requests {
		t.Errorf("completed %d of %d", rep.Completed, rep.Requests)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("closed-loop decode run is not deterministic")
	}
}

// TestServeDecodeDeterministic extends the determinism invariant to the
// token-level decode engine: bit-identical reports across runs and every
// engine parallelism level.
func TestServeDecodeDeterministic(t *testing.T) {
	base, err := Run(decodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		cfg := decodeConfig()
		cfg.Engine = gemm.NewEngine()
		cfg.Engine.Exec.Parallelism = par
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("parallelism %d diverged:\n%+v\n%+v", par, base, rep)
		}
	}
}

// TestServeDecodeMemoBounded pins that context bucketing keeps the
// planner-sim count bounded while thousands of decode steps run.
func TestServeDecodeMemoBounded(t *testing.T) {
	cfg := decodeConfig()
	cfg.RatePerSec = 200
	cfg.DurationSeconds = 5
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecodeSteps < 1000 {
		t.Fatalf("expected thousands of decode steps, got %d", rep.DecodeSteps)
	}
	// Step shapes: batch size in [1, MaxBatch], ctx bucketed to the token
	// quantum and bounded by maxPrompt + maxOut + quantum. Prefill shapes
	// are bounded as before; the sum must stay far below the step count.
	if rep.DistinctForwardSims > 256 {
		t.Errorf("%d distinct sims for %d decode steps — context bucketing is not bounding the memo",
			rep.DistinctForwardSims, rep.DecodeSteps)
	}
}

func TestServeMemoizationBoundsSims(t *testing.T) {
	cfg := testConfig()
	cfg.RatePerSec = 1000
	cfg.DurationSeconds = 10
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 5000 {
		t.Fatalf("expected thousands of requests, got %d", rep.Requests)
	}
	// MaxBatch*MaxTokens/quantum = 8*256/64 = 32 token buckets, 4 ctx
	// buckets: far fewer distinct sims than batches.
	if rep.DistinctForwardSims > 128 {
		t.Errorf("%d distinct sims for %d batches — memoization is not collapsing shapes",
			rep.DistinctForwardSims, rep.Batches)
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig()
	cfg.RatePerSec = 0
	if _, err := Run(cfg); err == nil {
		t.Error("config without an arrival source accepted")
	}
	cfg = testConfig()
	cfg.OutTokens = 4 // BERT is not a decoder
	if _, err := Run(cfg); err == nil {
		t.Error("decode on an encoder model accepted")
	}
	cfg = testConfig()
	cfg.OutTokensMean = 8 // sampled decode lengths need a decoder too
	if _, err := Run(cfg); err == nil {
		t.Error("sampled decode lengths on an encoder model accepted")
	}
	cfg = testConfig()
	cfg.Model = dnn.OPT125M()
	cfg.OutTokensMean = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative output-length mean accepted")
	}
	cfg = testConfig()
	cfg.Model = dnn.OPT125M()
	cfg.OutTokensMean = 0.2 // would clamp to a zero max and silently disable decode
	if _, err := Run(cfg); err == nil {
		t.Error("sub-token output-length mean accepted")
	}
	cfg = testConfig()
	cfg.Replicas = 1000 // testbed has 32 ranks
	if _, err := Run(cfg); err == nil {
		t.Error("more replicas than ranks accepted")
	}
}

// TestServeTraceHonorsDuration pins the arrival-window contract on trace
// replay: timestamps past an explicit cutoff are not admitted.
func TestServeTraceHonorsDuration(t *testing.T) {
	cfg := testConfig()
	cfg.RatePerSec = 0
	cfg.ArrivalTimes = []float64{0.5, 1.0, 100.0}
	cfg.DurationSeconds = 10
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2 {
		t.Errorf("admitted %d requests, want 2 (t=100 is past the 10s window)", rep.Requests)
	}
}

func TestRoundUp(t *testing.T) {
	cases := [][3]int{{1, 64, 64}, {64, 64, 64}, {65, 64, 128}, {128, 64, 128}}
	for _, c := range cases {
		if got := RoundUp(c[0], c[1]); got != c[2] {
			t.Errorf("RoundUp(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, pol := range []Policy{FCFS, Packed} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Error("unknown policy accepted")
	}
}
