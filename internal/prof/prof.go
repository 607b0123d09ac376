// Package prof wires the standard pprof collectors into the command-line
// tools, so every perf change to the simulator can ship with CPU and heap
// evidence (`-cpuprofile` / `-memprofile` on localut-bench and
// localut-serve, inspected with `go tool pprof`).
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins the requested profiles and returns a stop function to run
// at process exit: defer it from the command body that cmd/internal/cli's
// Main runs, which exits only after the body has returned, so error exits
// flush the profiles too (stop is idempotent). Empty paths disable the
// matching profile. The CPU profile streams for the whole run; the heap
// profile is a single post-GC snapshot taken at stop, which is the view
// that shows steady-state retention rather than transient garbage.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "prof:", err)
					return
				}
				defer f.Close()
				runtime.GC() // snapshot live objects, not garbage
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "prof:", err)
				}
			}
		})
	}, nil
}
