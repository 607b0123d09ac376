package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/internal/dnn"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/serve"
	"github.com/ais-snu/localut/internal/trace"
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

// TestFacadeAddsNothing runs the golden config (OPT-125M) through
// System.Serve and through serve.Run directly — testbed engine and energy model, flat
// fields one to one — and requires the two reports equal in every field:
// the public report is the internal one, not a copy.
func TestFacadeAddsNothing(t *testing.T) {
	cfg := goldenConfig()
	facade, err := localut.NewSystem(localut.WithSeed(1)).Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	format, err := quant.ParseFormat(cfg.Format.Name())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := serve.Run(serve.Config{
		Model: dnn.OPT125M(), Fmt: format, Variant: kernels.Variant(cfg.Design),
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

// execute parses args with the command's own flag registration and runs
// the mode they select, returning what it wrote.
func execute(args ...string) ([]byte, error) {
	var o options
	fs := flag.NewFlagSet("localut-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := o.execute(fs, &buf)
	return buf.Bytes(), err
}

// sweep runs a -csv sweep and returns its rows keyed by column header.
func sweep(t *testing.T, args ...string) []map[string]string {
	t.Helper()
	out, err := execute(append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]map[string]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, col := range recs[0] {
			row[col] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows
}

// num reads a numeric cell.
func num(t *testing.T, row map[string]string, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("column %q: %v (row %v)", col, err, row)
	}
	return v
}

// TestSweepShapeAndSaturation: pushing the offered rate 100x must not scale
// throughput 100x, and p99 latency and utilization must rise.
func TestSweepShapeAndSaturation(t *testing.T) {
	rows := sweep(t, "-model", "bert-base", "-duration", "2s", "-sweep", "20,2000")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	light, heavy := rows[0], rows[1]
	if light["design"] != "LoCaLUT" || num(t, heavy, "rate/s") != 2000 {
		t.Errorf("row identity wrong: %v", rows)
	}
	if num(t, heavy, "throughput/s") > 50*num(t, light, "throughput/s") {
		t.Errorf("no saturation: %v", rows)
	}
	for _, col := range []string{"p99 (s)", "util"} {
		if num(t, heavy, col) <= num(t, light, col) {
			t.Errorf("%s did not rise under overload: %s -> %s", col, light[col], heavy[col])
		}
	}
}

// TestSweepPerDesign: -designs gives one row per design, in list order.
func TestSweepPerDesign(t *testing.T) {
	rows := sweep(t, "-model", "bert-base", "-duration", "2s", "-sweep", "50", "-designs", "op+lc+rc, LoCaLUT")
	if len(rows) != 2 || rows[0]["design"] != "OP+LC+RC" || rows[1]["design"] != "LoCaLUT" {
		t.Errorf("rows = %v, want OP+LC+RC then LoCaLUT", rows)
	}
}

// TestSweepDecodeColumns: a decode sweep carries the token-level columns.
func TestSweepDecodeColumns(t *testing.T) {
	p := sweep(t, "-model", "opt-125m", "-duration", "2s", "-out-tokens-mean", "8", "-out-tokens-max", "32", "-sweep", "20")[0]
	if num(t, p, "ttft p99 (s)") <= 0 || num(t, p, "tpot p99 (s)") <= 0 || num(t, p, "tokens/s") <= 0 {
		t.Errorf("decode row missing TTFT/TPOT/tokens: %v", p)
	}
	if num(t, p, "ttft p99 (s)") >= num(t, p, "p99 (s)") {
		t.Errorf("TTFT p99 not below total-latency p99: %v", p)
	}
}

// TestSweepDeterministic: a sweep is byte-identical across runs and -j.
func TestSweepDeterministic(t *testing.T) {
	args := []string{"-model", "opt-125m", "-duration", "2s", "-out-tokens", "4", "-sweep", "50,100", "-designs", "LoCaLUT,OP"}
	a, errA := execute(append(args, "-j", "1")...)
	b, errB := execute(append(args, "-j", "4")...)
	if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("sweep differs across -j 1 and -j 4 (%v, %v)\n%s\n%s", errA, errB, a, b)
	}
}

// cells renders values the way a table cell does.
func cells(vals ...interface{}) []string {
	t := trace.NewTable("", make([]string, len(vals))...)
	t.Add(vals...)
	return t.Rows[0]
}

// TestSweepPointIsSingleRun: a sweep row is the single run of the same
// flags at that rate and design.
func TestSweepPointIsSingleRun(t *testing.T) {
	flags := []string{"-model", "opt-125m", "-duration", "3s", "-out-tokens-mean", "8", "-max-batch", "4", "-scheduler", "fcfs"}
	row := sweep(t, append(flags, "-sweep", "40", "-designs", "OP+LC")...)[0]
	out, err := execute(append(flags, "-rate", "40", "-design", "OP+LC", "-json")...)
	if err != nil {
		t.Fatal(err)
	}
	var rep localut.ServeReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	want := cells(rep.Design, rep.ThroughputPerSec, rep.Latency.P99, rep.TTFT.P99, rep.MeanBatchSize, rep.Requests)
	got := []string{row["design"], row["throughput/s"], row["p99 (s)"], row["ttft p99 (s)"], row["batch"], row["requests"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep row %v, single run %v", got, want)
	}
}

// TestDroppedFlagsRefused: a flag the selected mode would drop is an error
// naming it, and nothing is written.
func TestDroppedFlagsRefused(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-designs", []string{"-designs", "LoCaLUT,OP"}},
		{"-clients", []string{"-sweep", "10", "-clients", "4"}},
		{"-trace-out", []string{"-sweep", "10", "-trace-out", filepath.Join(dir, "t.json")}},
		{"-metrics-out", []string{"-sweep", "10", "-metrics-out", filepath.Join(dir, "m.csv")}},
		{"-rate", []string{"-sweep", "10", "-rate", "5"}},
		{"-json", []string{"-sweep", "10", "-json"}},
		{"-hist", []string{"-sweep", "10", "-hist"}},
	} {
		out, err := execute(tc.args...)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") || len(out) > 0 {
			t.Errorf("%v: got %v and %d bytes, want an error naming %s", tc.args, err, len(out), tc.flag)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		t.Errorf("a refused run wrote %d files", len(files))
	}
}
