package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// call is one recorder hook invocation; play makes it and ref encodes what
// it must produce.
type call struct {
	ph       byte // M with tid < 0 = Process, M = Thread, X, i, b, e
	name     string
	cat      string
	ts, dur  float64
	pid, tid int
	id       int
	args     []Arg
}

func play(r *Recorder, calls []call) {
	for _, c := range calls {
		switch {
		case c.ph == 'M' && c.tid < 0:
			r.Process(c.pid, c.name)
		case c.ph == 'M':
			r.Thread(c.pid, c.tid, c.name)
		case c.ph == 'X':
			r.Span(c.pid, c.tid, c.name, c.ts, c.dur, c.args...)
		case c.ph == 'i':
			r.Instant(c.pid, c.tid, c.name, c.ts, c.args...)
		case c.ph == 'b':
			r.BeginAsync(c.pid, c.cat, c.id, c.name, c.ts, c.args...)
		case c.ph == 'e':
			r.EndAsync(c.pid, c.cat, c.id, c.name, c.ts, c.args...)
		}
	}
}

// ref is the reference encoder: the document spelled with json.Marshal and
// strconv.FormatFloat, the slow way, which the recorder's append encoder
// must match byte for byte. Unlike the recorder it keeps a repeated
// Process or Thread registration, so callers pass each track once.
func ref(calls []call) []byte {
	str := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	us := func(s float64) string { return strconv.FormatFloat(s*1e6, 'f', 3, 64) }
	track := func(pid, tid int) string { return `,"pid":` + strconv.Itoa(pid) + `,"tid":` + strconv.Itoa(tid) }
	var out strings.Builder
	out.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, c := range calls {
		if i > 0 {
			out.WriteString(",\n")
		}
		name, args := c.name, c.args
		switch {
		case c.ph == 'M' && c.tid < 0:
			name, args, c.tid = "process_name", []Arg{Str("name", c.name)}, 0
		case c.ph == 'M':
			name, args = "thread_name", []Arg{Str("name", c.name)}
		}
		out.WriteString(`{"name":` + str(name) + `,"ph":"` + string(c.ph) + `"`)
		switch c.ph {
		case 'M':
			out.WriteString(track(c.pid, c.tid))
		case 'X':
			out.WriteString(`,"ts":` + us(c.ts) + `,"dur":` + us(c.dur) + track(c.pid, c.tid))
		case 'i':
			out.WriteString(`,"s":"t","ts":` + us(c.ts) + track(c.pid, c.tid))
		case 'b', 'e':
			out.WriteString(`,"cat":` + str(c.cat) + `,"id":` + strconv.Itoa(c.id) + `,"ts":` + us(c.ts) + track(c.pid, 0))
		}
		if len(args) > 0 || c.ph == 'b' {
			out.WriteString(`,"args":{`)
			for j, a := range args {
				if j > 0 {
					out.WriteString(",")
				}
				out.WriteString(str(a.Key) + ":")
				switch {
				case !a.IsNum:
					out.WriteString(str(a.Str))
				case math.IsNaN(a.Val) || math.IsInf(a.Val, 0):
					out.WriteString("null")
				default:
					out.WriteString(strconv.FormatFloat(a.Val, 'g', -1, 64))
				}
			}
			out.WriteString("}")
		}
		out.WriteString("}")
	}
	out.WriteString("\n]}\n")
	return []byte(out.String())
}

// requestCalls is n requests' worth of the hooks a fleet run makes, with
// the track names up front: 3n+3 events, about 400 bytes per request.
func requestCalls(n int) []call {
	calls := []call{
		{ph: 'M', name: "traffic", pid: 0, tid: -1},
		{ph: 'M', name: "instance 0", pid: 1, tid: -1},
		{ph: 'M', name: "replica 0", pid: 1, tid: 1},
	}
	for i := 0; i < n; i++ {
		t := float64(i) * 1.25e-3
		calls = append(calls,
			call{ph: 'b', name: "request", cat: "req", id: i, ts: t,
				args: []Arg{Str("class", "default"), Num("tokens", float64(64+i%7)), Num("out", 0)}},
			call{ph: 'X', name: "prefill", pid: 1, tid: 1, ts: t, dur: 0.0205,
				args: []Arg{Num("reqs", 1), Num("tokens", float64(64+i%7))}},
			call{ph: 'e', name: "request", cat: "req", id: i, ts: t + 0.0205})
	}
	return calls
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRecorderMatchesReference holds the append encoder to the reference
// over every event form, escaped and plain strings and non-finite args,
// across several buffers.
func TestRecorderMatchesReference(t *testing.T) {
	calls := append(requestCalls(1000),
		call{ph: 'i', name: "crash", pid: 2, tid: 0, ts: 3},
		call{ph: 'i', name: "re\"ject\\", ts: 0, args: []Arg{Str("class", "a<b>&c\n\x7f"), Str("\u00e9\u2028", "\xff")}},
		call{ph: 'b', name: "bare", cat: "c\tat", id: -4, ts: 1e-10},
		call{ph: 'X', name: "odd", pid: -1, tid: 3, ts: 0.0000005, dur: 1 << 60, args: []Arg{
			Num("nan", math.NaN()), Num("inf", math.Inf(1)), Num("ninf", math.Inf(-1)),
			Num("tiny", 5e-324), Num("big", 1e21)}},
	)
	r := NewRecorder(1)
	play(r, calls)
	if r.Len() != len(calls) {
		t.Fatalf("Len() = %d after %d calls", r.Len(), len(calls))
	}
	if len(r.full) < 3 {
		t.Fatalf("document spans %d full buffers, want several", len(r.full))
	}
	var got bytes.Buffer
	if err := r.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if want := ref(calls); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("recorder and reference encoder differ at byte %d", firstDiff(got.Bytes(), want))
	}
	if !json.Valid(got.Bytes()) {
		t.Error("document is not valid JSON")
	}
	if !bytes.Contains(got.Bytes(), []byte(`"args":{"nan":null,"inf":null,"ninf":null,"tiny":5e-324,"big":1e+21}`)) {
		t.Error("non-finite arg values must be exported as null")
	}
}

// TestRecorderConsumesArgsInCall checks that an event holds the arg values
// of the moment it was recorded: the caller reuses and overwrites one
// slice between calls, as a hook's stack-allocated variadic slice is.
func TestRecorderConsumesArgsInCall(t *testing.T) {
	const n = 3000
	r := NewRecorder(1)
	args := make([]Arg, 2)
	for i := 0; i < n; i++ {
		args[0], args[1] = Num("k", float64(i)), Str("s", strconv.Itoa(i))
		r.Instant(0, 0, "x", 0, args...)
		args[0], args[1] = Num("late", -1), Str("late", "late")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if len(top.TraceEvents) != n {
		t.Fatalf("%d events exported, want %d", len(top.TraceEvents), n)
	}
	for i, e := range top.TraceEvents {
		if len(e.Args) != 2 || e.Args["k"] != float64(i) || e.Args["s"] != strconv.Itoa(i) {
			t.Fatalf("event %d exported args %v", i, e.Args)
		}
	}
}

// writeLog is a writer that counts its calls and fails, for good, once it
// would hold more than limit bytes (limit < 0 = never).
type writeLog struct {
	bytes.Buffer
	limit  int
	writes int
	fails  int
}

var errDiskFull = errors.New("disk full")

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes++
	if w.limit >= 0 && w.Len()+len(p) > w.limit {
		w.fails++
		n, _ := w.Buffer.Write(p[:w.limit-w.Len()])
		return n, errDiskFull
	}
	return w.Buffer.Write(p)
}

// TestStreamMatchesRetained checks that a recorder streaming to a writer
// delivers, in buffer-sized writes, the bytes a retaining one exports.
func TestStreamMatchesRetained(t *testing.T) {
	calls := requestCalls(2000)
	kept := NewRecorder(1)
	play(kept, calls)
	var want bytes.Buffer
	if err := kept.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	w := &writeLog{limit: -1}
	r := NewStreamRecorder(1, w)
	play(r, calls[:100])
	if w.writes != 0 {
		t.Fatalf("%d writes before the first buffer filled", w.writes)
	}
	play(r, calls[100:])
	if w.writes < 3 {
		t.Fatalf("%d writes while recording %d bytes, want one per full buffer", w.writes, want.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Errorf("streamed and retained documents differ at byte %d", firstDiff(w.Bytes(), want.Bytes()))
	}
	if r.Len() != kept.Len() {
		t.Errorf("Len() %d streamed, %d retained", r.Len(), kept.Len())
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("WriteJSON on a streaming recorder must refuse: the writer already has the document")
	}
}

// TestStreamFirstErrorSticks checks the failure contract: the first write
// error comes back from Close, and the writer is never called again.
func TestStreamFirstErrorSticks(t *testing.T) {
	w := &writeLog{limit: 100_000}
	r := NewStreamRecorder(1, w)
	play(r, requestCalls(2000))
	if err := r.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close() = %v, want the writer's error", err)
	}
	if w.fails != 1 || w.writes != 2 {
		t.Errorf("writer saw %d calls and failed %d of them: want one good write, one failure, nothing after",
			w.writes, w.fails)
	}
}

// TestStreamAbandon checks the failed-run contract: a document the writer
// has part of is terminated and parses; a writer that has nothing yet, as
// when a run fails validation, stays untouched.
func TestStreamAbandon(t *testing.T) {
	w := &writeLog{limit: -1}
	r := NewStreamRecorder(1, w)
	play(r, requestCalls(1000))
	r.Abandon()
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Bytes(), &top); err != nil {
		t.Fatalf("abandoned document does not parse: %v", err)
	}
	if len(top.TraceEvents) != r.Len() {
		t.Errorf("abandoned document holds %d of %d events", len(top.TraceEvents), r.Len())
	}

	w = &writeLog{limit: -1}
	r = NewStreamRecorder(1, w)
	play(r, requestCalls(10))
	r.Abandon()
	if w.writes != 0 {
		t.Errorf("abandoning before the first full buffer wrote %d bytes", w.Len())
	}
}

// discardCount counts bytes and keeps none.
type discardCount struct{ n int64 }

func (d *discardCount) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// TestStreamMemoryBounded checks that a streaming recorder holds one
// buffer however much it has recorded.
func TestStreamMemoryBounded(t *testing.T) {
	var w discardCount
	r := NewStreamRecorder(1, &w)
	for i := 0; i < 1_000_000; i++ {
		r.Span(1, 1, "prefill", float64(i)*1e-3, 0.02, Num("reqs", 1), Num("tokens", 128))
	}
	if cap(r.buf) > bufSize || len(r.full) != 0 {
		t.Errorf("after %d events the recorder holds a %d-byte buffer and %d kept ones; want at most %d and 0",
			r.Len(), cap(r.buf), len(r.full), bufSize)
	}
	if w.n < 50_000_000 {
		t.Errorf("only %d bytes reached the writer", w.n)
	}
}

// FuzzAppendMicros holds the integer formatter to strconv on any float64.
func FuzzAppendMicros(f *testing.F) {
	seeds := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 0.0205, 1.25e-3, 123456.789012,
		5e-324, 2.2250738585072014e-308, // smallest subnormal, smallest normal
		1 << 53, 1<<53 - 1, (1 << 53) * 1e-6, 9007199254.740991, 9007199254.740993,
		1e-9, 0.9765625e-9, 0.9765624e-9, // around 2^-10 us, the low edge of the integer path
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	// k+0.5 thousandths of a microsecond, where half-to-even decides, and
	// the neighbours one ulp either side.
	for _, k := range []float64{0, 1, 2, 3, 124, 125, 999, 1000, 4096, 250000, 1e9 + 1, 1e12 + 2} {
		s := (k + 0.5) * 1e-9
		seeds = append(seeds, s, math.Nextafter(s, 0), math.Nextafter(s, 1))
	}
	for _, s := range seeds {
		f.Add(math.Float64bits(s))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		// The fuzzer mutates bit patterns of seconds; dividing one by 1e6
		// also lands its mutations on the scaled value the formatter
		// decomposes.
		for _, s := range []float64{math.Float64frombits(bits), math.Float64frombits(bits) / 1e6} {
			got := string(appendMicros([]byte("ts:"), s))
			if want := "ts:" + strconv.FormatFloat(s*1e6, 'f', 3, 64); got != want {
				t.Fatalf("appendMicros(%v [%#x]) = %q, strconv gives %q", s, math.Float64bits(s), got, want)
			}
		}
	})
}

// FuzzRecorderJSON records every event form with arbitrary strings and
// numbers and holds the document to the reference encoder — so its strings
// are json.Marshal's — and to json.Valid.
func FuzzRecorderJSON(f *testing.F) {
	f.Add("prefill", "req", "tokens", "default", 0.5, 0.0205, 128.0, 1, 7)
	f.Add("", "", "", "", 0.0, 0.0, 0.0, 0, 0)
	f.Add("a\"b\\c", "<cat>", "k&", "line\nbreak\ttab\x00nul\x1f", 1e-9, 1e9, math.NaN(), -3, -1)
	f.Add("h\u00e9llo\u2028\u2029", "\xff\xfe", "", "\U0001f600 \xed\xa0\x80", 123.456789, 5e-10, math.Inf(-1), 1<<31, 1<<40)
	f.Add("</script>", "'", "\\u0000", "\r\x7f", 9007199254.740993, 1e-7, 1e21, 12, 1)
	// Either side of the whole-number path's edges (see appendNum).
	for _, num := range []float64{999999, 1e6, -999999, -1e6, math.Copysign(0, -1), 0.5, 1 << 53} {
		f.Add("decode", "req", "n", "default", 0.25, 0.001, num, 2, 3)
	}
	f.Fuzz(func(t *testing.T, name, cat, key, val string, ts, dur, num float64, pid, id int) {
		for _, s := range []float64{ts, dur, ts + dur} {
			if x := s * 1e6; math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("simulated time is finite; strconv spells these NaN and Inf, which JSON lacks")
			}
		}
		calls := []call{
			{ph: 'M', name: name, pid: pid, tid: -1},
			{ph: 'M', name: name, pid: pid, tid: max(id, 0)},
			{ph: 'b', name: name, cat: cat, id: id, ts: ts, pid: pid},
			{ph: 'b', name: name, cat: cat, id: id, ts: ts, pid: pid, args: []Arg{Str(key, val), Num(key, num)}},
			{ph: 'X', name: name, ts: ts, dur: dur, pid: pid, tid: id, args: []Arg{Num(key, num), Str(val, key)}},
			{ph: 'i', name: name, ts: dur, pid: pid, tid: id, args: []Arg{Str(key, val)}},
			{ph: 'i', name: name, ts: ts, pid: pid, tid: id},
			{ph: 'e', name: name, cat: cat, id: id, ts: ts + dur, pid: pid, args: []Arg{Num(key, num)}},
			{ph: 'e', name: name, cat: cat, id: id, ts: ts, pid: pid},
		}
		r := NewRecorder(1)
		play(r, calls)
		var got bytes.Buffer
		if err := r.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := ref(calls); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("recorder wrote\n%s\nreference encoder\n%s", got.Bytes(), want)
		}
		if !json.Valid(got.Bytes()) {
			t.Fatalf("not valid JSON:\n%s", got.Bytes())
		}
	})
}

// TestNumIntegerPathMatchesStrconv holds appendNum to strconv on every whole
// number the integer path takes and the first ones past it in each
// direction, then on fractions, negative zero and magnitudes beside them.
func TestNumIntegerPathMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := string(appendNum(nil, v)), strconv.FormatFloat(v, 'g', -1, 64); got != want {
			t.Fatalf("appendNum(%v) = %q, strconv gives %q", v, got, want)
		}
	}
	for n := -1_000_001; n <= 1_000_001; n++ {
		check(float64(n))
	}
	for _, v := range []float64{
		math.Copysign(0, -1), 0.5, -0.5, 127.5, 999999.5, -999999.5, math.Nextafter(1e6, 0), math.Nextafter(-1e6, 0),
		1 << 53, -(1 << 53), 1e21, math.MaxInt64, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		check(v)
	}
	if got := string(appendNum(nil, 1e6)); got != "1e+06" {
		t.Errorf("the format no longer turns to an exponent at 1e6 (%q): the integer path's bound is wrong", got)
	}
}

// BenchmarkRecorder prices one request's hooks on a streaming recorder:
// async begin with three args, a pass span with two, async end.
func BenchmarkRecorder(b *testing.B) {
	r := NewStreamRecorder(1, &discardCount{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := float64(i) * 1e-3
		r.BeginAsync(0, "req", i, "request", t, Str("class", "default"), Num("tokens", 128), Num("out", 0))
		r.Span(1, 1, "prefill", t, 0.02, Num("reqs", 1), Num("tokens", 128))
		r.EndAsync(0, "req", i, "request", t+0.02)
	}
}
