package obsfiles

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCloserClosesEveryFile checks the closer's contract: an error from
// one file does not stop the others being closed, and all errors come back.
func TestCloserClosesEveryFile(t *testing.T) {
	dir := t.TempDir()
	cfg, closer, err := Open(filepath.Join(dir, "trace.json"), 4, filepath.Join(dir, "metrics.json"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TraceSampleN != 4 || cfg.MetricsIntervalSeconds != 2 || !cfg.MetricsJSON {
		t.Errorf("config %+v does not carry the flags", cfg)
	}
	trace, metrics := cfg.TraceWriter.(*os.File), cfg.MetricsWriter.(*os.File)
	if err := trace.Close(); err != nil { // the closer's first Close now fails
		t.Fatal(err)
	}
	err = closer()
	if err == nil || !strings.Contains(err.Error(), "trace.json") {
		t.Errorf("closer returned %v, want the trace file's close error", err)
	}
	if _, err := metrics.Write([]byte("x")); err == nil {
		t.Error("the metrics file was left open after the trace file failed to close")
	}
}

// TestOpenFailureLeavesNothingOpen checks that a metrics path that cannot
// be created closes the trace file already opened, and that empty paths
// open nothing.
func TestOpenFailureLeavesNothingOpen(t *testing.T) {
	dir := t.TempDir()
	_, _, err := Open(filepath.Join(dir, "trace.json"), 1, filepath.Join(dir, "no-such-dir", "m.csv"), 1)
	if err == nil {
		t.Fatal("metrics file in a missing directory opened")
	}
	cfg, closer, err := Open("", 1, "", 1)
	if err != nil || cfg.TraceWriter != nil || cfg.MetricsWriter != nil {
		t.Fatalf("empty paths gave config %+v, error %v", cfg, err)
	}
	if err := closer(); err != nil {
		t.Error(err)
	}
}

// TestOpenRefusesNonPositiveRates checks that a sample rate below 1 or an
// interval of 0 or less is an error naming its flag, and creates no file.
func TestOpenRefusesNonPositiveRates(t *testing.T) {
	dir := t.TempDir()
	tr, met := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.csv")
	for _, tc := range []struct {
		trace, metrics string
		sampleN        int
		interval       float64
		flag           string
	}{
		{tr, met, -3, 1, "-trace-sample"},
		{tr, met, 0, 1, "-trace-sample"},
		{"", "", -3, 1, "-trace-sample"},
		{tr, met, 1, -1, "-metrics-interval"},
		{tr, met, 1, 0, "-metrics-interval"},
		{"", "", 1, -1, "-metrics-interval"},
	} {
		_, _, err := Open(tc.trace, tc.sampleN, tc.metrics, tc.interval)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("sample %d, interval %g: error %v, want one naming %s", tc.sampleN, tc.interval, err, tc.flag)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		t.Errorf("a refused Open created %d files", len(files))
	}
}
