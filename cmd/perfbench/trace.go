package main

import "time"

// span is one timed interval recorded by the traced pass. Spans are
// opened from this package's code around each call into a layer; spans
// inside the simulator are a later change.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Parent   int     `json:"parent"` // index into the span list, -1 for roots; self time = duration minus children's
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written out with the results
// when the benchmark ends.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
	workload string
	rep      int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Rep: t.rep, Parent: parent,
		Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// durations lists the durations of the spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}
