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
	"encoding/json"
	"errors"
	"io"
	"math"
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

// Recorder encodes trace events in emission order. The simulators emit
// strictly in event-loop order, which is deterministic, so the exported
// JSON is too. Each hook appends its event's final bytes to one buffer —
// Chrome trace-event JSON object form ({"traceEvents": [...]}), a fixed
// field order per event, one event per line — and consumes its args inside
// the call, so a hook's variadic slice stays on the caller's stack. A full
// buffer goes to the attached writer and is reused, or is kept for
// WriteJSON when there is none. Track layout: pid 0 is the traffic/fleet
// track (request lifecycle spans, scale and admission events); pid i+1 is
// instance i, with tid 0 for instance-level events and tid r+1 for replica
// r's batch spans.
//
//determlint:nilsafe every exported method must no-op on a nil receiver
type Recorder struct {
	// SampleN records every Nth request lifecycle (1 = all). Pass and
	// fleet events are always recorded; only per-request spans sample.
	SampleN int

	buf   []byte    // the document's tail: encoded, not yet written or kept
	full  [][]byte  // filled buffers in order, when no writer is attached
	w     io.Writer // nil = keep the document for WriteJSON
	wrote bool      // part of the document has been handed to w
	err   error     // first error from w; nothing is written after it
	n     int

	procs   map[int]bool
	threads map[[2]int]bool
}

const (
	// bufSize is the capacity of the encode buffer. A buffer counts as
	// full once fewer than eventRoom bytes are free, so an event of
	// ordinary size never grows it.
	bufSize   = 64 << 10
	eventRoom = 1 << 10

	header = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
	footer = "\n]}\n"
)

// NewRecorder builds a recorder sampling every sampleN-th request
// lifecycle (values < 1 record everything). It keeps the encoded document
// in memory; WriteJSON exports it.
func NewRecorder(sampleN int) *Recorder {
	if sampleN < 1 {
		sampleN = 1
	}
	return &Recorder{
		SampleN: sampleN,
		buf:     append(make([]byte, 0, bufSize), header...),
		procs:   map[int]bool{},
		threads: map[[2]int]bool{},
	}
}

// NewStreamRecorder is NewRecorder writing the document to w as it is
// recorded, one full buffer at a time, so memory stays at that one buffer
// however long the run is. Nothing reaches w before the first buffer
// fills; Close writes the rest.
func NewStreamRecorder(sampleN int, w io.Writer) *Recorder {
	r := NewRecorder(sampleN)
	r.w = w
	return r
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

// flush hands the buffer on and leaves an empty one in its place.
func (r *Recorder) flush() {
	if r.w == nil {
		r.full = append(r.full, r.buf)
		r.buf = make([]byte, 0, bufSize)
		return
	}
	if r.err == nil {
		r.wrote = true
		_, r.err = r.w.Write(r.buf)
	}
	r.buf = r.buf[:0]
}

// begin opens the next event up to its phase and returns the buffer to
// append the rest to; end closes it.
func (r *Recorder) begin(name string, ph byte) []byte {
	if len(r.buf) > bufSize-eventRoom {
		r.flush()
	}
	b := r.buf
	if r.n > 0 {
		b = append(b, ",\n"...)
	}
	r.n++
	b = appendString(append(b, `{"name":`...), name)
	return append(append(b, `,"ph":"`...), ph, '"')
}

// end appends the args object, when there are args or the phase always
// carries one, and closes the event.
func (r *Recorder) end(b []byte, args []Arg, always bool) {
	if len(args) > 0 || always {
		b = append(b, `,"args":{`...)
		for i := range args {
			a := &args[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendString(b, a.Key), ':')
			switch {
			case !a.IsNum:
				b = appendString(b, a.Str)
			case math.IsNaN(a.Val) || math.IsInf(a.Val, 0):
				b = append(b, "null"...) // JSON has no spelling for these
			default:
				b = appendNum(b, a.Val)
			}
		}
		b = append(b, '}')
	}
	r.buf = append(b, '}')
}

// Process names a track group (one per appliance instance, plus pid 0 for
// fleet-level traffic). Repeated registrations are dropped so lifecycle
// churn (crash/repair, scale up) can re-register freely.
func (r *Recorder) Process(pid int, name string) {
	if r == nil || r.procs[pid] {
		return
	}
	r.procs[pid] = true
	r.end(appendTrack(r.begin("process_name", 'M'), pid, 0), []Arg{Str("name", name)}, false)
}

// Thread names one track within a process (one per replica).
func (r *Recorder) Thread(pid, tid int, name string) {
	if r == nil || r.threads[[2]int{pid, tid}] {
		return
	}
	r.threads[[2]int{pid, tid}] = true
	r.end(appendTrack(r.begin("thread_name", 'M'), pid, tid), []Arg{Str("name", name)}, false)
}

// Span records a complete span (ph "X") of dur seconds starting at ts.
func (r *Recorder) Span(pid, tid int, name string, ts, dur float64, args ...Arg) {
	if r == nil {
		return
	}
	b := appendMicros(append(r.begin(name, 'X'), `,"ts":`...), ts)
	b = appendMicros(append(b, `,"dur":`...), dur)
	r.end(appendTrack(b, pid, tid), args, false)
}

// Instant records a point event (ph "i").
func (r *Recorder) Instant(pid, tid int, name string, ts float64, args ...Arg) {
	if r == nil {
		return
	}
	b := appendMicros(append(r.begin(name, 'i'), `,"s":"t","ts":`...), ts)
	r.end(appendTrack(b, pid, tid), args, false)
}

// BeginAsync opens an async span (ph "b") keyed by (cat, id); EndAsync
// closes it. Request lifecycles use async spans because a request's
// begin and end interleave arbitrarily with other requests on the same
// track.
func (r *Recorder) BeginAsync(pid int, cat string, id int, name string, ts float64, args ...Arg) {
	if r == nil {
		return
	}
	r.end(r.async('b', pid, cat, id, name, ts), args, true)
}

// EndAsync closes the async span opened by BeginAsync with the same
// (cat, id).
func (r *Recorder) EndAsync(pid int, cat string, id int, name string, ts float64, args ...Arg) {
	if r == nil {
		return
	}
	r.end(r.async('e', pid, cat, id, name, ts), args, false)
}

// async opens one half of an async span, up to its args.
func (r *Recorder) async(ph byte, pid int, cat string, id int, name string, ts float64) []byte {
	b := appendString(append(r.begin(name, ph), `,"cat":`...), cat)
	b = strconv.AppendInt(append(b, `,"id":`...), int64(id), 10)
	b = appendMicros(append(b, `,"ts":`...), ts)
	return appendTrack(b, pid, 0)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// WriteJSON writes the document of a recorder built by NewRecorder. The
// output depends only on the recorded event sequence, and writing does not
// change the recorder: recording may go on and a later call writes the
// longer document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	if r.w != nil {
		return errors.New("obs: WriteJSON on a recorder that streams to its own writer; Close ends that document")
	}
	for _, b := range r.full {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if _, err := w.Write(r.buf); err != nil {
		return err
	}
	_, err := io.WriteString(w, footer)
	return err
}

// Close ends the document of a recorder built by NewStreamRecorder: it
// terminates the event array, writes what is still buffered and returns
// the first error the writer gave during the run or now. It must be the
// recorder's last call.
func (r *Recorder) Close() error {
	if r == nil || r.w == nil {
		return nil
	}
	r.buf = append(r.buf, footer...)
	r.flush()
	return r.err
}

// Abandon is Close for a run that failed: a document the writer already
// holds part of is terminated, so the partial trace still parses, and a
// writer that holds nothing is left untouched.
func (r *Recorder) Abandon() {
	if r == nil || !r.wrote {
		return
	}
	_ = r.Close() // the run's own error is the one to report
}

// appendTrack appends the pid and tid fields.
func appendTrack(b []byte, pid, tid int) []byte {
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// appendNum appends a finite v with the bytes of strconv.AppendFloat(b, v,
// 'g', -1, 64). That format spells a whole number below 1e6 in magnitude as
// its plain decimal digits (1e6 is where it turns to an exponent, "1e+06"),
// and every value on the hot hooks is such a count, so those skip the
// shortest-float search. -0 is "-0" there and stays with strconv.
func appendNum(b []byte, v float64) []byte {
	if -1e6 < v && v < 1e6 {
		if n := int64(v); float64(n) == v && (n != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, n, 10)
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendMicros renders a simulated-seconds timestamp in microseconds with
// fixed nanosecond precision — fixed format, so the bytes are reproducible
// and trace viewers parse them as plain decimals. The bytes are those of
// strconv.AppendFloat(b, s*1e6, 'f', 3, 64), which takes strconv's
// multi-precision path; FuzzAppendMicros holds the two equal.
//
// Write x = s*1e6 as m·2^e with m the 53-bit significand. For -62 <= e <= 0,
// 1000·m < 2^63 is exact in a uint64 and x·1000 = 1000·m / 2^-e, so the
// quotient and remainder of that shift round half-to-even exactly as
// strconv's exact decimal does. Everything else — negative, zero and
// subnormal, below 2^-10, at or above 2^53, NaN and Inf — goes to strconv.
func appendMicros(b []byte, s float64) []byte {
	x := s * 1e6
	bits := math.Float64bits(x)
	e := int(bits>>52) - 1075 // a set sign bit lands above 0 with NaN and Inf
	if e < -62 || e > 0 {
		return strconv.AppendFloat(b, x, 'f', 3, 64)
	}
	m := (bits&(1<<52-1) | 1<<52) * 1000
	q := m >> uint(-e)
	twice := (m - q<<uint(-e)) << 1 // twice the remainder, against one unit
	if unit := uint64(1) << uint(-e); twice > unit || twice == unit && q&1 == 1 {
		q++
	}
	b = strconv.AppendUint(b, q/1000, 10)
	f := q % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// appendString appends s as a JSON string with encoding/json's bytes: raw
// between quotes when no byte needs escaping under json.Marshal's
// HTML-safe rules, json.Marshal's own output otherwise.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
