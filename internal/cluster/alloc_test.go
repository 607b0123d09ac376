package cluster

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/obs"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
)

// steadyConfig is an eight-appliance BERT fleet at about 0.8 utilisation:
// 200 requests per simulated second, no chaos, auditor on.
func steadyConfig(seconds float64) Config {
	return Config{
		Base: serve.Config{
			Model:   dnn.BERTBase(),
			Fmt:     quant.W1A3,
			Variant: kernels.LoCaLUT,
		},
		Instances:       8,
		Router:          LeastOutstanding,
		RatePerSec:      200,
		DurationSeconds: seconds,
		Seed:            1,
		Audit:           true,
	}
}

// allocOf runs the fleet and returns the heap objects and bytes it
// allocated and the requests it admitted.
func allocOf(t *testing.T, cfg Config) (mallocs, bytes uint64, admitted int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, rep.Admitted
}

// TestFleetAllocBudget is the allocation budget of the fleet's request
// path: a steady run twice as long may allocate at most 0.25 objects and
// 16 bytes per extra request. Taking the difference of two runs cancels
// what a run allocates once — instances, oracle memos, the report — and
// leaves the per-request cost: the occasional slice growth, and request
// slab chunks while finished requests are not recycled. Before events,
// batches and completions were recycled this read 6.0 objects; before
// requests were, 131 bytes (a 128-byte Request and its chunk's slack).
// Recycled, it reads under 1 byte.
func TestFleetAllocBudget(t *testing.T) {
	allocOf(t, steadyConfig(5)) // first-use work outside the two measured runs
	m1, b1, n1 := allocOf(t, steadyConfig(100))
	m2, b2, n2 := allocOf(t, steadyConfig(200))
	if n2-n1 < 15000 {
		t.Fatalf("runs admitted %d and %d requests: too close to measure a 20k-request margin", n1, n2)
	}
	perReq := (float64(m2) - float64(m1)) / float64(n2-n1)
	bytesPerReq := (float64(b2) - float64(b1)) / float64(n2-n1)
	t.Logf("%d and %d requests, %d and %d mallocs, %d and %d bytes: %.4f allocs and %.2f bytes per extra request",
		n1, n2, m1, m2, b1, b2, perReq, bytesPerReq)
	if perReq > 0.25 {
		t.Errorf("steady fleet allocates %.3f objects per request, budget 0.25", perReq)
	}
	if bytesPerReq > 16 {
		t.Errorf("steady fleet allocates %.1f bytes per request, budget 16: finished requests are not being recycled", bytesPerReq)
	}
}

// TestChaosBytesBudget is the memory bound of a hedged chaos fleet, by the
// same difference of two runs: an extra admitted request may cost at most
// 24 bytes of heap, so nothing in the report or the loop keeps a
// per-request record. Every copy of a request goes back to the slab —
// finished and shed requests, the loser of a hedge race, original or
// duplicate, and a copy a fault retired — so this reads about 11 bytes.
// It read 150 while hedge losers and retired copies went to the garbage
// collector, 280 before any request was recycled, and over 1000 with
// hedge entries on the timeline.
func TestChaosBytesBudget(t *testing.T) {
	mk := func(seconds float64) Config {
		cfg := chaosConfig(1)
		cfg.RatePerSec = 120
		cfg.DurationSeconds = seconds
		return cfg
	}
	allocOf(t, mk(5))
	_, b1, n1 := allocOf(t, mk(100))
	_, b2, n2 := allocOf(t, mk(200))
	if n2-n1 < 10000 {
		t.Fatalf("runs admitted %d and %d requests: too close to measure a 10k-request margin", n1, n2)
	}
	perReq := (float64(b2) - float64(b1)) / float64(n2-n1)
	const budget = 24
	t.Logf("%d and %d requests, %d and %d bytes: %.1f bytes per extra request (budget %d)", n1, n2, b1, b2, perReq, budget)
	if perReq > budget {
		t.Errorf("hedged chaos fleet allocates %.1f bytes per request, budget %d", perReq, budget)
	}
}

// TestInfiniteHedgeDelayIsHedgingOff pins +Inf as "never hedge", which
// validation accepts for the fleet's delay and for a class's override. A
// timer that cannot fire is not scheduled and holds no request, so the
// report is the hedging-off report byte for byte, and slots are reused as
// requests end rather than at the drain: an extra request stays within
// TestChaosBytesBudget's 24 bytes (it read 248 while each request waited
// for a timer at +Inf).
func TestInfiniteHedgeDelayIsHedgingOff(t *testing.T) {
	mk := func(seconds float64, hedge HedgeConfig, classDelay float64) Config {
		cfg := chaosConfig(1)
		cfg.RatePerSec = 120
		cfg.DurationSeconds = seconds
		cfg.Hedge = hedge
		if classDelay != 0 {
			cfg.Classes = []ClassConfig{{Name: "default", RatePerSec: cfg.RatePerSec, HedgeDelaySeconds: classDelay}}
		}
		return cfg
	}
	inf := math.Inf(1)
	off := clusterJSON(t, mk(30, HedgeConfig{}, 0))
	for name, cfg := range map[string]Config{
		"fleet delay": mk(30, HedgeConfig{Enabled: true, DelaySeconds: inf}, 0),
		"class delay": mk(30, HedgeConfig{Enabled: true, DelaySeconds: 0.5}, inf),
	} {
		if got := clusterJSON(t, cfg); !bytes.Equal(got, off) {
			t.Errorf("%s of +Inf: the report differs from the hedging-off report", name)
		}
	}

	never := HedgeConfig{Enabled: true, DelaySeconds: inf}
	allocOf(t, mk(5, never, 0))
	_, b1, n1 := allocOf(t, mk(100, never, 0))
	_, b2, n2 := allocOf(t, mk(200, never, 0))
	if n2-n1 < 10000 {
		t.Fatalf("runs admitted %d and %d requests: too close to measure a 10k-request margin", n1, n2)
	}
	perReq := (float64(b2) - float64(b1)) / float64(n2-n1)
	const budget = 24
	t.Logf("%d and %d requests, %d and %d bytes: %.1f bytes per extra request (budget %d)", n1, n2, b1, b2, perReq, budget)
	if perReq > budget {
		t.Errorf("a fleet that never hedges allocates %.1f bytes per request, budget %d", perReq, budget)
	}
}

// countingWriter counts the bytes it is handed and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestObsAllocBudget is TestFleetAllocBudget with every request traced
// and the sampler on: a recorder streaming to its writer encodes into one
// reused buffer, so recording fits inside the same 0.25 budget.
func TestObsAllocBudget(t *testing.T) {
	run := func(seconds float64) (mallocs uint64, admitted int) {
		var w countingWriter
		cfg := steadyConfig(seconds)
		cfg.Recorder, cfg.Metrics = obs.NewStreamRecorder(1, &w), obs.NewMetrics(1)
		mallocs, _, admitted = allocOf(t, cfg)
		if err := cfg.Recorder.Close(); err != nil {
			t.Fatal(err)
		}
		if w.n < 200*int64(admitted) {
			t.Fatalf("%d requests left %d bytes of trace: the recorder was not recording", admitted, w.n)
		}
		return mallocs, admitted
	}
	run(5)
	m1, n1 := run(100)
	m2, n2 := run(200)
	if n2-n1 < 15000 {
		t.Fatalf("runs admitted %d and %d requests: too close to measure a 20k-request margin", n1, n2)
	}
	perReq := (float64(m2) - float64(m1)) / float64(n2-n1)
	t.Logf("%d and %d requests, %d and %d mallocs: %.4f allocs per extra traced request", n1, n2, m1, m2, perReq)
	if perReq > 0.25 {
		t.Errorf("traced fleet allocates %.3f objects per request, budget 0.25", perReq)
	}
}

// TestAutoscalerWindowOnlyWhenEnabled pins the window leak fix: with the
// autoscaler off nothing truncates the response-start window, so nothing
// may be appended to it — on the prefill-only path (onFinish) and on the
// decode path (onFirstToken) alike.
func TestAutoscalerWindowOnlyWhenEnabled(t *testing.T) {
	decode := steadyConfig(400)
	decode.Base.Model = dnn.OPT125M()
	decode.Base.OutTokens = 4
	decode.RatePerSec = 25
	for name, cfg := range map[string]Config{"prefill": steadyConfig(50), "decode": decode} {
		cs, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cs.run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed < 9000 {
			t.Fatalf("%s: only %d requests completed, want a ~10k-request run", name, rep.Completed)
		}
		if len(cs.window) != 0 || cap(cs.window) != 0 {
			t.Errorf("%s: autoscaler off, yet the window holds %d samples (cap %d) after %d requests",
				name, len(cs.window), cap(cs.window), rep.Completed)
		}
	}
}
