package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/cli"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenConfig is the fixed workload behind the -json regression test: a
// small decode-heavy run touching every report section (TTFT/TPOT, KV
// gauge, histogram-free path).
func goldenConfig() localut.ServeConfig {
	return localut.ServeConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		RatePerSec:      40,
		DurationSeconds: 5,
		Scheduler:       localut.SchedulePacked,
		OutTokensMean:   8,
		OutTokensMax:    32,
	}
}

// renderJSON produces exactly what `localut-serve -json` writes: the
// report through an indenting encoder.
func renderJSON(t *testing.T, cfg localut.ServeConfig) []byte {
	t.Helper()
	sys := localut.NewSystem(localut.WithSeed(1))
	rep, err := sys.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeJSONGolden pins the -json output byte for byte on a fixed
// seed and config. A diff means either the report schema or the
// simulation's numbers changed — both must be deliberate; run
// `go test ./cmd/localut-serve -update` to re-bless.
func TestServeJSONGolden(t *testing.T) {
	got := renderJSON(t, goldenConfig())
	path := filepath.Join("testdata", "serve_opt125m_w1a3.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON report drifted from %s (re-bless with -update if intentional)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestServeJSONGoldenStable guards the golden test itself: two fresh
// systems must render identical bytes, or the golden file would flake.
func TestServeJSONGoldenStable(t *testing.T) {
	a := renderJSON(t, goldenConfig())
	b := renderJSON(t, goldenConfig())
	if !bytes.Equal(a, b) {
		t.Fatal("same config rendered different JSON across runs")
	}
}

// TestFacadeAddsNothing runs the golden config through System.Serve and
// through serve.Run directly — testbed engine and energy model, flat
// fields one to one — and requires the two reports equal in every field:
// the public report is the internal one, not a copy.
func TestFacadeAddsNothing(t *testing.T) {
	cfg := goldenConfig()
	facade, err := localut.NewSystem(localut.WithSeed(1)).Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := cli.ModelConfig(cfg.Model.String())
	if err != nil {
		t.Fatal(err)
	}
	format, err := quant.ParseFormat(cfg.Format.Name())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := serve.Run(serve.Config{
		Model: model, Fmt: format, Variant: kernels.Variant(cfg.Design),
		Replicas:   cfg.Replicas,
		RatePerSec: cfg.RatePerSec, Clients: cfg.Clients, ThinkSeconds: cfg.ThinkSeconds,
		ArrivalTimes:    cfg.ArrivalTimes,
		DurationSeconds: cfg.DurationSeconds, Seed: 1,
		MaxBatch: cfg.MaxBatch, Scheduler: cfg.Scheduler,
		MinTokens: cfg.MinTokens, MaxTokens: cfg.MaxTokens, MeanTokens: cfg.MeanTokens,
		TokenQuantum: cfg.TokenQuantum,
		OutTokens:    cfg.OutTokens, OutTokensMean: cfg.OutTokensMean, OutTokensMax: cfg.OutTokensMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if facade.DecodeSteps == 0 || len(facade.LatencyHistogram) == 0 {
		t.Error("golden config no longer exercises decode and the latency histogram")
	}
	if !reflect.DeepEqual(facade, direct) {
		t.Errorf("Serve's report differs from serve.Run's\nfacade: %+v\ndirect: %+v", facade, direct)
	}
}

// TestAuditServeReadsShed checks that -audit compares the report's own
// Shed against requests - completed: a report that lost one request (it is
// neither completed nor shed) is a violation, and the same report with the
// request accounted as shed is clean.
func TestAuditServeReadsShed(t *testing.T) {
	cfg := goldenConfig()
	cfg.DurationSeconds = 1
	rep, err := localut.NewSystem(localut.WithSeed(1)).Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditServe(rep); err != nil {
		t.Fatalf("clean run failed its audit: %v", err)
	}
	lost := *rep
	lost.Completed--
	if err := auditServe(&lost); err == nil {
		t.Error("a report with one request neither completed nor shed passed the audit")
	}
	lost.Shed++
	if err := auditServe(&lost); err != nil {
		t.Errorf("the same request counted as shed failed the audit: %v", err)
	}
}

// TestReportTableSections sanity-checks the table renderer against a tiny
// run (decode rows must appear for decoder workloads).
func TestReportTableSections(t *testing.T) {
	sys := localut.NewSystem(localut.WithSeed(1))
	cfg := goldenConfig()
	cfg.DurationSeconds = 1
	rep, err := sys.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reportTable(rep).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{"throughput (req/s)", "ttft p50/p95/p99 (s)", "decode steps", "distinct forward sims"} {
		if !bytes.Contains([]byte(out), []byte(row)) {
			t.Errorf("table missing row %q:\n%s", row, out)
		}
	}
}
