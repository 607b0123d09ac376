package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// Metrics samples a set of gauges/counters on a fixed simulated-time
// interval. The event loop calls Advance(now) before applying each event;
// any interval boundary b < now is emitted using the current state, which
// is exactly the simulator's state at time b because no event fired in
// between. Rows therefore depend only on the event sequence, never on
// wall-clock or worker parallelism, and the exported CSV/JSON is
// byte-reproducible. All methods are nil-safe no-ops.
//
//determlint:nilsafe every exported method must no-op on a nil receiver
type Metrics struct {
	Interval float64 // sampling period in simulated seconds

	cols    []string
	sample  func(now float64) []float64
	times   []float64
	rows    [][]float64
	next    float64
	started bool
}

// NewMetrics builds a sampler with the given period (values <= 0 become 1).
func NewMetrics(intervalSeconds float64) *Metrics {
	if intervalSeconds <= 0 {
		intervalSeconds = 1
	}
	return &Metrics{Interval: intervalSeconds}
}

// Bind installs the column names and the sampling closure. The closure
// must read only deterministic simulator state and return one value per
// column.
func (m *Metrics) Bind(cols []string, sample func(now float64) []float64) {
	if m == nil {
		return
	}
	m.cols = cols
	m.sample = sample
}

func (m *Metrics) emit(t float64) {
	m.times = append(m.times, t)
	m.rows = append(m.rows, m.sample(t))
}

// start emits the t=0 row on the first call.
func (m *Metrics) start() {
	if m.started {
		return
	}
	m.started = true
	m.next = m.Interval
	m.emit(0)
}

// Advance emits a row for every interval boundary strictly before now.
// Call it at the top of each event-loop iteration, before mutating state.
func (m *Metrics) Advance(now float64) {
	if m == nil || m.sample == nil {
		return
	}
	m.start()
	for m.next < now {
		m.emit(m.next)
		m.next += m.Interval
	}
}

// Finish flushes boundaries up to end and appends a final row at end, so
// every run — including ones shorter than one interval — closes with the
// end-of-run state.
func (m *Metrics) Finish(end float64) {
	if m == nil || m.sample == nil {
		return
	}
	m.start()
	for m.next <= end {
		m.emit(m.next)
		m.next += m.Interval
	}
	if m.times[len(m.times)-1] < end {
		m.emit(end)
	}
}

func formatMetric(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes "t_s,<col>,..." followed by one row per sample.
func (m *Metrics) WriteCSV(w io.Writer) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("t_s")
	for _, c := range m.cols {
		bw.WriteByte(',')
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	for i, t := range m.times {
		bw.WriteString(formatMetric(t))
		for _, v := range m.rows[i] {
			bw.WriteByte(',')
			bw.WriteString(formatMetric(v))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// metricsJSON is the JSON export schema; rows carry the timestamp as
// their first element, matching the CSV layout.
type metricsJSON struct {
	IntervalSeconds float64     `json:"interval_s"`
	Columns         []string    `json:"columns"`
	Rows            [][]float64 `json:"rows"`
}

// WriteJSON writes the same table as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		return nil
	}
	out := metricsJSON{IntervalSeconds: m.Interval, Columns: append([]string{"t_s"}, m.cols...)}
	out.Rows = make([][]float64, len(m.rows))
	for i, r := range m.rows {
		out.Rows[i] = append([]float64{m.times[i]}, r...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
