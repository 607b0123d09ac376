package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilRecorderSafe pins the zero-cost-when-off contract: every hook on
// a nil recorder and nil metrics sampler must be a safe no-op.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Process(1, "x")
	r.Thread(1, 1, "x")
	r.Span(1, 1, "prefill", 0, 1, Num("reqs", 3))
	r.Instant(1, 1, "crash", 2)
	r.BeginAsync(0, "req", 1, "request", 0)
	r.EndAsync(0, "req", 1, "request", 1)
	if r.Sampled(0) {
		t.Error("nil recorder claims to sample")
	}
	if r.Len() != 0 {
		t.Error("nil recorder has events")
	}
	r.Abandon()
	if err := r.Close(); err != nil {
		t.Error(err)
	}
	if err := r.WriteJSON(nil); err != nil {
		t.Error(err)
	}
	var m *Metrics
	m.Bind([]string{"x"}, nil)
	m.Advance(1)
	m.Finish(2)
}

// TestRecorderSampling checks the deterministic 1-in-N request filter.
func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(3)
	got := []bool{r.Sampled(0), r.Sampled(1), r.Sampled(2), r.Sampled(3)}
	want := []bool{true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sampled(%d) = %v, want %v", i, got[i], want[i])
		}
	}
	if !NewRecorder(0).Sampled(17) {
		t.Error("sampleN<1 must record everything")
	}
}

// TestRecorderJSON validates the export: parseable JSON, traceEvents
// array, fixed field order, and metadata/span/instant/async forms.
func TestRecorderJSON(t *testing.T) {
	r := NewRecorder(1)
	r.Process(0, "traffic")
	r.Process(1, "instance 0")
	r.Process(1, "dup ignored")
	r.Thread(1, 1, "replica 0")
	r.BeginAsync(0, "req", 7, "request", 0.5, Num("tokens", 128), Str("class", "hot"))
	r.Span(1, 1, "prefill", 0.5, 0.25, Num("reqs", 2))
	r.Instant(1, 0, "crash", 1)
	r.EndAsync(0, "req", 7, "request", 1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(top.TraceEvents) != 7 { // dup process registration dropped
		t.Fatalf("got %d events, want 7:\n%s", len(top.TraceEvents), buf.String())
	}
	span := top.TraceEvents[4]
	if span["ph"] != "X" || span["ts"] != 500000.0 || span["dur"] != 250000.0 {
		t.Errorf("span event mangled: %v", span)
	}
	if !strings.Contains(buf.String(), `"args":{"tokens":128,"class":"hot"}`) {
		t.Errorf("args lost order or content:\n%s", buf.String())
	}
	// Byte-reproducibility of the writer itself.
	var again bytes.Buffer
	if err := r.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two writes of the same recorder differ")
	}
}

// TestMetricsBoundaries pins the lazy-advance semantics: a t=0 row, one
// row per interior boundary using pre-event state, and a final row at end.
func TestMetricsBoundaries(t *testing.T) {
	m := NewMetrics(1)
	v := 0.0
	m.Bind([]string{"v"}, func(now float64) []float64 { return []float64{v} })
	// Events at t=0.5 (v becomes 1), t=2.5 (v becomes 2); run ends at 3.2.
	m.Advance(0.5)
	v = 1
	m.Advance(2.5)
	v = 2
	m.Finish(3.2)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t_s,v\n0,0\n1,1\n2,1\n3,2\n3.2,2\n"
	if buf.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestMetricsIntervalLongerThanRun covers the satellite edge case: the
// export still has the header, the t=0 row and the end-of-run row.
func TestMetricsIntervalLongerThanRun(t *testing.T) {
	m := NewMetrics(60)
	m.Bind([]string{"x"}, func(now float64) []float64 { return []float64{now * 2} })
	m.Advance(1.5)
	m.Finish(2)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "t_s,x\n0,0\n2,4\n" {
		t.Errorf("CSV:\n%s", buf.String())
	}
	// Zero-duration flavor: only the t=0 row.
	z := NewMetrics(60)
	z.Bind([]string{"x"}, func(now float64) []float64 { return []float64{1} })
	z.Finish(0)
	if len(z.rows) != 1 {
		t.Errorf("zero-duration run emitted %d rows, want 1", len(z.rows))
	}
}

// TestMetricsJSON checks the JSON flavor parses and mirrors the CSV rows.
func TestMetricsJSON(t *testing.T) {
	m := NewMetrics(1)
	m.Bind([]string{"a", "b"}, func(now float64) []float64 { return []float64{now, now + 1} })
	m.Finish(2)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		IntervalSeconds float64     `json:"interval_s"`
		Columns         []string    `json:"columns"`
		Rows            [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.IntervalSeconds != 1 || len(out.Columns) != 3 || out.Columns[0] != "t_s" || len(out.Rows) != 3 {
		t.Errorf("JSON export mangled: %+v", out)
	}
}

// nilHooks makes the hot-path hook calls in the shapes the simulators
// use — a pass span with two numeric args, a request begin with a string
// and two numbers — on a disabled recorder and metrics sampler.
func nilHooks(r *Recorder, m *Metrics, i int) {
	r.Span(1, 1, "prefill", 0, 1, Num("reqs", float64(i)), Num("tokens", 64))
	r.Instant(1, 1, "kv-stall", 0, Num("waiting", float64(i)))
	_ = r.Sampled(i)
	r.BeginAsync(0, "req", i, "request", 0, Str("class", "default"), Num("tokens", 64), Num("out", 4))
	r.EndAsync(0, "req", i, "request", 1)
	m.Advance(float64(i))
}

// TestNilRecorderZeroAlloc pins the zero-cost-when-off contract where it
// used to break: the recorder encodes args inside the call instead of
// retaining them, so a hook's variadic slice never reaches the heap when
// tracing is off.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	var m *Metrics
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		nilHooks(r, m, i)
		i++
	}); n != 0 {
		t.Errorf("hooks on a nil recorder allocate %v times per call set, want 0", n)
	}
}

// BenchmarkNilRecorder pins the disabled-recorder overhead: each hook is
// one nil check, so instrumented hot paths cost nothing when tracing is
// off.
func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nilHooks(r, m, i)
	}
}
