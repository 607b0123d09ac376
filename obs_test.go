package localut

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// limitedWriter fails, for good, from the write that would take it past
// limit bytes (limit < 0 = never), and counts its calls.
type limitedWriter struct {
	bytes.Buffer
	limit  int
	writes int
	fails  int
}

var errWriterFull = errors.New("writer full")

func (w *limitedWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.fails > 0 || w.limit >= 0 && w.Len()+len(p) > w.limit {
		w.fails++
		return 0, errWriterFull
	}
	return w.Buffer.Write(p)
}

// TestTraceWriterStreams pins the TraceWriter contract on both facades:
// the trace arrives during the run in several writes and is a complete
// document on return; the writer's first error comes back wrapped and
// stops the writing; a run that fails validation writes nothing.
func TestTraceWriterStreams(t *testing.T) {
	facades := map[string]func(w *limitedWriter, valid bool) error{
		"ServeCluster": func(w *limitedWriter, valid bool) error {
			cfg := clusterTestConfig()
			cfg.RatePerSec, cfg.DurationSeconds = 200, 10
			if !valid {
				cfg.Instances = -1
			}
			cfg.Obs = ObsConfig{TraceWriter: w}
			_, err := NewSystem(WithSeed(1)).ServeCluster(cfg)
			return err
		},
		"Serve": func(w *limitedWriter, valid bool) error {
			cfg := serveTestConfig()
			cfg.RatePerSec, cfg.DurationSeconds = 100, 20
			if !valid {
				cfg.RatePerSec = 0
			}
			cfg.Obs = ObsConfig{TraceWriter: w}
			_, err := NewSystem(WithSeed(1)).Serve(cfg)
			return err
		},
	}
	for name, run := range facades {
		w := &limitedWriter{limit: -1}
		if err := run(w, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.writes < 3 {
			t.Errorf("%s: a %d-byte trace arrived in %d writes, want one per full buffer", name, w.Len(), w.writes)
		}
		if !json.Valid(w.Bytes()) || !bytes.HasSuffix(w.Bytes(), []byte("\n]}\n")) {
			t.Errorf("%s: trace is not a complete JSON document", name)
		}

		full := &limitedWriter{limit: w.Len() / 2}
		err := run(full, true)
		if !errors.Is(err, errWriterFull) || !strings.HasPrefix(err.Error(), "localut: trace export: ") {
			t.Errorf("%s: failing writer gave %v, want the writer's error wrapped as a trace export error", name, err)
		}
		if full.fails != 1 {
			t.Errorf("%s: the writer was called %d times after it failed", name, full.fails-1)
		}

		untouched := &limitedWriter{limit: -1}
		if err := run(untouched, false); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
		if untouched.writes != 0 {
			t.Errorf("%s: a run that failed validation wrote %d bytes of trace", name, untouched.Len())
		}
	}
}
