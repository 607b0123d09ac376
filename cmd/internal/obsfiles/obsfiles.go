// Package obsfiles opens the -trace-out and -metrics-out files the serving
// CLIs share.
package obsfiles

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"github.com/ais-snu/localut"
)

// Open creates the requested trace and metrics files (an empty path turns
// that output off) and returns the observability config writing to them,
// plus a closer for the caller to run after the simulation. The files go to
// the run unbuffered: the trace recorder hands over a full buffer at a time
// already. The closer closes every file and returns their errors joined,
// so a trace that failed to reach the disk is reported even when the
// metrics file closed cleanly. The flags' defaults are explicit, so a
// sample rate below 1 or an interval of 0 or less is refused rather than
// read as the default.
func Open(tracePath string, sampleN int, metricsPath string, intervalSeconds float64) (localut.ObsConfig, func() error, error) {
	var cfg localut.ObsConfig
	switch {
	case sampleN < 1:
		return cfg, nil, fmt.Errorf("-trace-sample %d must be at least 1", sampleN)
	case !(intervalSeconds > 0):
		return cfg, nil, fmt.Errorf("-metrics-interval %gs must be positive", intervalSeconds)
	}
	var files []*os.File
	closer := func() error {
		var errs []error
		for _, f := range files {
			errs = append(errs, f.Close())
		}
		return errors.Join(errs...)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return cfg, nil, err
		}
		files = append(files, f)
		cfg.TraceWriter = f
		cfg.TraceSampleN = sampleN
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return localut.ObsConfig{}, nil, errors.Join(err, closer())
		}
		files = append(files, f)
		cfg.MetricsWriter = f
		cfg.MetricsIntervalSeconds = intervalSeconds
		cfg.MetricsJSON = strings.HasSuffix(metricsPath, ".json")
	}
	return cfg, closer, nil
}
