package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// simTolerance is the relative difference below which two simulated
// statistics count as the same bits.
const simTolerance = 1e-12

// runCompare applies the metric bounds to two result files of the same
// pass kind, prints one row per workload and metric, and returns the exit
// code: non-zero on any worse row or a higher failed-operation share.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = loadResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 2
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareResults(w io.Writer, a, b *resultFile) int {
	if a.Meta.Seed != b.Meta.Seed || a.Meta.Quick != b.Meta.Quick || a.Meta.Traced != b.Meta.Traced {
		fmt.Fprintf(w, "warning: comparing seed %d quick %v traced %v with seed %d quick %v traced %v\n",
			a.Meta.Seed, a.Meta.Quick, a.Meta.Traced, b.Meta.Seed, b.Meta.Quick, b.Meta.Traced)
	}
	defs := append(append([]metricDef(nil), endToEndMetrics...), simMetrics...)
	worse := 0
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-20s missing from the second file: worse\n", wa.Name)
			worse++
			continue
		}
		for _, d := range defs {
			va, okA := wa.Metrics[d.name]
			vb, okB := wb.Metrics[d.name]
			if !okA && !okB {
				continue
			}
			verdict := "worse" // a metric only one side reports
			if okA && okB {
				verdict = judge(d, va, vb)
			}
			if verdict == "worse" || verdict == "changed" {
				worse++
			}
			fmt.Fprintf(w, "%-20s %-24s %14.6g %14.6g %+8.2f%%  %s\n",
				wa.Name, d.name, va.Value, vb.Value, 100*(vb.Value/va.Value-1), verdict)
		}
		fa := float64(wa.OpsFailed) / float64(wa.OpsAttempted)
		fb := float64(wb.OpsFailed) / float64(wb.OpsAttempted)
		if fb > fa {
			fmt.Fprintf(w, "%-20s ops_failed/ops_attempted rose from %d/%d to %d/%d: worse\n",
				wa.Name, wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted)
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d worse\n", worse)
		return 1
	}
	return 0
}

// judge compares one metric of the second side against the first.
// Simulated statistics match exactly or have changed. A host metric is
// unresolved when the two sides' quartile ranges overlap and either is
// wider than the bound: the spread hides a difference of that size.
func judge(d metricDef, a, b metricValue) string {
	if d.bound == 0 {
		if math.Abs(b.Value-a.Value) <= simTolerance*math.Abs(a.Value) {
			return "same"
		}
		return "changed"
	}
	if a.N > 1 && b.N > 1 {
		overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
		spread := math.Max((a.Q3-a.Q1)/a.Value, (b.Q3-b.Q1)/b.Value)
		if overlap && spread > d.bound {
			return "unresolved"
		}
	}
	change := b.Value/a.Value - 1 // positive is worse: every host metric is lower-is-better
	switch {
	case change > d.bound:
		return "worse"
	case change < -d.bound:
		return "better"
	}
	return "same"
}
