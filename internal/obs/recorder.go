// Package obs is the deterministic observability layer for the serving
// simulators: request/pass spans exported as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing) and interval-sampled
// time-series metrics. Everything is driven off simulated time and
// event-order state, so exported files are byte-identical across runs and
// worker parallelism levels. All Recorder and Metrics methods are nil-safe
// no-ops, so instrumentation hooks cost one nil check when observability
// is off.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// Arg is one key/value annotation on a trace event. Args are an ordered
// slice rather than a map so the exported JSON never depends on Go's map
// iteration order.
type Arg struct {
	Key   string
	Str   string
	Val   float64
	IsNum bool
}

// Num builds a numeric annotation.
func Num(key string, v float64) Arg { return Arg{Key: key, Val: v, IsNum: true} }

// Str builds a string annotation.
func Str(key, v string) Arg { return Arg{Key: key, Str: v} }

// event is one Chrome trace event. Timestamps and durations are kept in
// simulated seconds and converted to microseconds at write time.
type event struct {
	name string
	ph   byte // X=span, i=instant, b/e=async begin/end, M=metadata
	ts   float64
	dur  float64
	pid  int
	tid  int
	id   int    // async span id (ph b/e)
	cat  string // async category (ph b/e)
	args []Arg
}

// Recorder accumulates trace events in emission order. The simulators emit
// strictly in event-loop order, which is deterministic, so the recorded
// stream — and the exported JSON — is too. Track layout: pid 0 is the
// traffic/fleet track (request lifecycle spans, scale and admission
// events); pid i+1 is instance i, with tid 0 for instance-level events and
// tid r+1 for replica r's batch spans.
//
//determlint:nilsafe every exported method must no-op on a nil receiver
type Recorder struct {
	// SampleN records every Nth request lifecycle (1 = all). Pass and
	// fleet events are always recorded; only per-request spans sample.
	SampleN int

	// events is the recorded stream in emission order, in chunks of
	// eventChunk: recording never copies or re-zeroes what it already
	// holds, and memory is the events themselves rather than a doubling
	// slice's old and new arrays.
	events  [][]event
	n       int
	argBuf  []Arg // tail of the current args chunk; see keepArgs
	procs   map[int]bool
	threads map[[2]int]bool
}

// Chunk sizes of the event stream and of the argument arena, in elements.
const (
	eventChunk = 2048
	argChunk   = 4096
)

// add appends one event to the stream.
func (r *Recorder) add(e event) {
	if r.n%eventChunk == 0 {
		r.events = append(r.events, make([]event, 0, eventChunk))
	}
	c := &r.events[len(r.events)-1]
	*c = append(*c, e)
	r.n++
}

// keepArgs copies a hook's variadic args into the recorder's chunked arena
// and returns the copy. Events retain the copy, never the caller's slice,
// so that slice stays on the caller's stack: a hook on a nil recorder
// costs its nil check and no allocation, whatever args it is handed.
func (r *Recorder) keepArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	if len(args) > cap(r.argBuf)-len(r.argBuf) {
		r.argBuf = make([]Arg, 0, max(argChunk, len(args)))
	}
	n := len(r.argBuf)
	r.argBuf = append(r.argBuf, args...)
	return r.argBuf[n:len(r.argBuf):len(r.argBuf)]
}

// NewRecorder builds a recorder sampling every sampleN-th request
// lifecycle (values < 1 record everything).
func NewRecorder(sampleN int) *Recorder {
	if sampleN < 1 {
		sampleN = 1
	}
	return &Recorder{SampleN: sampleN, procs: map[int]bool{}, threads: map[[2]int]bool{}}
}

// Sampled reports whether request id's lifecycle should be recorded.
// Request IDs are assigned in arrival order, so id%SampleN picks the same
// deterministic subset on every run and -j level.
func (r *Recorder) Sampled(id int) bool {
	if r == nil {
		return false
	}
	return id%r.SampleN == 0
}

// Process names a track group (one per appliance instance, plus pid 0 for
// fleet-level traffic). Repeated registrations are dropped so lifecycle
// churn (crash/repair, scale up) can re-register freely.
func (r *Recorder) Process(pid int, name string) {
	if r == nil || r.procs[pid] {
		return
	}
	r.procs[pid] = true
	r.add(event{name: "process_name", ph: 'M', pid: pid, args: []Arg{Str("name", name)}})
}

// Thread names one track within a process (one per replica).
func (r *Recorder) Thread(pid, tid int, name string) {
	if r == nil || r.threads[[2]int{pid, tid}] {
		return
	}
	r.threads[[2]int{pid, tid}] = true
	r.add(event{name: "thread_name", ph: 'M', pid: pid, tid: tid, args: []Arg{Str("name", name)}})
}

// Span records a complete span (ph "X") of dur seconds starting at ts.
func (r *Recorder) Span(pid, tid int, name string, ts, dur float64, args ...Arg) {
	if r == nil {
		return
	}
	r.add(event{name: name, ph: 'X', ts: ts, dur: dur, pid: pid, tid: tid, args: r.keepArgs(args)})
}

// Instant records a point event (ph "i").
func (r *Recorder) Instant(pid, tid int, name string, ts float64, args ...Arg) {
	if r == nil {
		return
	}
	r.add(event{name: name, ph: 'i', ts: ts, pid: pid, tid: tid, args: r.keepArgs(args)})
}

// BeginAsync opens an async span (ph "b") keyed by (cat, id); EndAsync
// closes it. Request lifecycles use async spans because a request's
// begin and end interleave arbitrarily with other requests on the same
// track.
func (r *Recorder) BeginAsync(pid int, cat string, id int, name string, ts float64, args ...Arg) {
	if r == nil {
		return
	}
	r.add(event{name: name, ph: 'b', ts: ts, pid: pid, id: id, cat: cat, args: r.keepArgs(args)})
}

// EndAsync closes the async span opened by BeginAsync with the same
// (cat, id).
func (r *Recorder) EndAsync(pid int, cat string, id int, name string, ts float64, args ...Arg) {
	if r == nil {
		return
	}
	r.add(event{name: name, ph: 'e', ts: ts, pid: pid, id: id, cat: cat, args: r.keepArgs(args)})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// secondsToMicros renders a simulated-seconds timestamp as a microsecond
// string with fixed nanosecond precision — fixed format, so the bytes are
// reproducible and trace viewers parse them as plain decimals.
func secondsToMicros(s float64) string {
	return strconv.FormatFloat(s*1e6, 'f', 3, 64)
}

// writeString JSON-escapes s deterministically.
func writeString(w *bufio.Writer, s string) {
	b, _ := json.Marshal(s)
	w.Write(b)
}

func writeArgs(w *bufio.Writer, args []Arg) {
	w.WriteString(`,"args":{`)
	for i, a := range args {
		if i > 0 {
			w.WriteByte(',')
		}
		writeString(w, a.Key)
		w.WriteByte(':')
		if a.IsNum {
			w.WriteString(strconv.FormatFloat(a.Val, 'g', -1, 64))
		} else {
			writeString(w, a.Str)
		}
	}
	w.WriteByte('}')
}

// WriteJSON writes the trace in Chrome trace-event JSON object form
// ({"traceEvents": [...]}) with a fixed field order per event, one event
// per line. The output depends only on the recorded event sequence.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i := 0; i < r.n; i++ {
		e := &r.events[i/eventChunk][i%eventChunk]
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.WriteString(`{"name":`)
		writeString(bw, e.name)
		bw.WriteString(`,"ph":"`)
		bw.WriteByte(e.ph)
		bw.WriteByte('"')
		switch e.ph {
		case 'M':
			bw.WriteString(`,"pid":` + strconv.Itoa(e.pid) + `,"tid":` + strconv.Itoa(e.tid))
		case 'X':
			bw.WriteString(`,"ts":` + secondsToMicros(e.ts) + `,"dur":` + secondsToMicros(e.dur) +
				`,"pid":` + strconv.Itoa(e.pid) + `,"tid":` + strconv.Itoa(e.tid))
		case 'i':
			bw.WriteString(`,"s":"t","ts":` + secondsToMicros(e.ts) +
				`,"pid":` + strconv.Itoa(e.pid) + `,"tid":` + strconv.Itoa(e.tid))
		case 'b', 'e':
			bw.WriteString(`,"cat":`)
			writeString(bw, e.cat)
			bw.WriteString(`,"id":` + strconv.Itoa(e.id) + `,"ts":` + secondsToMicros(e.ts) +
				`,"pid":` + strconv.Itoa(e.pid) + `,"tid":0`)
		}
		if len(e.args) > 0 || e.ph == 'b' {
			writeArgs(bw, e.args)
		}
		bw.WriteByte('}')
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
