package localut

import (
	"fmt"
	"io"
	"math"

	"github.com/ais-snu/localut/internal/obs"
)

// ObsConfig attaches the deterministic observability layer to a serving
// or cluster run. Recording is enabled per output: a non-nil TraceWriter
// captures request spans, batch/decode passes and fleet events as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing); a non-nil
// MetricsWriter captures interval time-series metrics as CSV or JSON.
// Both exports are pure functions of the run's configuration and seed —
// byte-identical across runs and engine parallelism levels — and a zero
// ObsConfig records nothing at near-zero cost.
type ObsConfig struct {
	// TraceWriter receives the Chrome trace-event JSON export (nil =
	// tracing off). It is written during the run, a buffer at a time, and
	// the document is complete and terminated when Serve/ServeCluster
	// returns — also when the run fails part-way, so a partial trace still
	// parses. A run that fails before the first buffer fills, as a
	// configuration error does, writes nothing.
	TraceWriter io.Writer
	// TraceSampleN keeps every N-th request's lifecycle span (by request
	// ID; 0 = 1, every request; negative is an error). Batch-level spans
	// are always kept.
	TraceSampleN int

	// MetricsWriter receives the time-series export after the run
	// completes (nil = metrics off).
	MetricsWriter io.Writer
	// MetricsIntervalSeconds is the sampling interval (0 = 1 s; negative,
	// NaN or +Inf is an error).
	MetricsIntervalSeconds float64
	// MetricsJSON switches the metrics encoding from CSV to JSON.
	MetricsJSON bool
}

// build validates the config and constructs the recorder and metrics
// sampler for the enabled outputs (nil, a no-op to the hooks, if disabled).
func (o ObsConfig) build() (*obs.Recorder, *obs.Metrics, error) {
	switch {
	case o.TraceSampleN < 0:
		return nil, nil, fmt.Errorf("localut: TraceSampleN %d is negative (0 keeps every request)", o.TraceSampleN)
	case !(o.MetricsIntervalSeconds >= 0) || math.IsInf(o.MetricsIntervalSeconds, 1):
		return nil, nil, fmt.Errorf("localut: MetricsIntervalSeconds %g must be a non-negative finite number (0 = 1 s)",
			o.MetricsIntervalSeconds)
	}
	var rec *obs.Recorder
	if o.TraceWriter != nil {
		rec = obs.NewStreamRecorder(o.TraceSampleN, o.TraceWriter)
	}
	var met *obs.Metrics
	if o.MetricsWriter != nil {
		met = obs.NewMetrics(o.MetricsIntervalSeconds)
	}
	return rec, met, nil
}

// export finishes the trace its writer has been receiving and writes the
// metrics to theirs.
func (o ObsConfig) export(rec *obs.Recorder, met *obs.Metrics) error {
	if err := rec.Close(); err != nil {
		return fmt.Errorf("localut: trace export: %w", err)
	}
	if met != nil {
		var err error
		if o.MetricsJSON {
			err = met.WriteJSON(o.MetricsWriter)
		} else {
			err = met.WriteCSV(o.MetricsWriter)
		}
		if err != nil {
			return fmt.Errorf("localut: metrics export: %w", err)
		}
	}
	return nil
}
