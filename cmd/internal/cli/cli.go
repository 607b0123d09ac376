// Package cli is the plumbing localut-serve, localut-cluster and
// localut-bench share: the error exit, the output, observability and
// profile flags and the command-line run of both serving commands, the
// appliance and request-shape flags they take, the one resolver of their
// name flags to facade values, the sweep-list parser, and the refusal of a
// flag a mode would drop. The serving commands are clients of the public
// facade: every mode of each builds one config from these flags and runs it
// through one System, and every flag is honoured or refused by name in
// every mode.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/cmd/internal/obsfiles"
	"github.com/ais-snu/localut/internal/prof"
	"github.com/ais-snu/localut/internal/trace"
)

// Main runs a command body and turns its error into "name: err" on
// standard error and exit status 1. The body has returned by then, so its
// deferred pprof stop and file closes have run: a failing profiled run
// still leaves usable profiles.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Output is what the serving commands write: the -o/-json/-csv report
// selection, the -trace-out/-metrics-out observability files and the
// -cpuprofile/-memprofile profiles.
type Output struct {
	Path      string
	JSON, CSV bool

	TraceOut, MetricsOut   string
	TraceSample            int
	MetricsInterval        time.Duration
	CPUProfile, MemProfile string
}

// Register binds the flags.
func (o *Output) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Path, "o", "", "write output to this file instead of stdout")
	fs.BoolVar(&o.JSON, "json", false, "emit JSON")
	fs.BoolVar(&o.CSV, "csv", false, "emit CSV")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	fs.IntVar(&o.TraceSample, "trace-sample", 1, "keep every N-th request's lifecycle span in the trace")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write interval time-series metrics to this file (.json = JSON, else CSV)")
	fs.DurationVar(&o.MetricsInterval, "metrics-interval", time.Second, "time-series sampling interval")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a post-GC pprof heap profile to this file at exit")
}

// Run parses the command line into the flags registered on
// flag.CommandLine, starts the requested profiles and runs execute on the
// parsed flags, writing to the file -o names (standard output when unset).
// The -o file's close error is reported with execute's: the file has just
// been written. The profiles stop when Run returns, so a failing run still
// leaves usable profiles.
func (o *Output) Run(execute func(*flag.FlagSet, io.Writer) error) error {
	flag.Parse()
	stop, err := prof.Start(o.CPUProfile, o.MemProfile)
	if err != nil {
		return err
	}
	defer stop()
	if o.Path == "" {
		return execute(flag.CommandLine, os.Stdout)
	}
	f, err := os.Create(o.Path)
	if err != nil {
		return err
	}
	return errors.Join(execute(flag.CommandLine, f), f.Close())
}

// Obs opens the -trace-out and -metrics-out files (see obsfiles.Open).
func (o *Output) Obs() (localut.ObsConfig, func() error, error) {
	return obsfiles.Open(o.TraceOut, o.TraceSample, o.MetricsOut, o.MetricsInterval.Seconds())
}

// Table writes t as CSV under -csv and as an aligned text table otherwise.
func (o *Output) Table(w io.Writer, t *trace.Table) error {
	if o.CSV {
		return t.CSV(w)
	}
	return t.Render(w)
}

// Sweep writes a sweep's table the way Table does, and its point count and
// host wall-clock since start to standard error.
func (o *Output) Sweep(w io.Writer, t *trace.Table, what string, start time.Time) error {
	if err := o.Table(w, t); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d %s points in %.2fs host wall-clock\n", len(t.Rows), what, time.Since(start).Seconds())
	return nil
}

// WriteJSON writes v the way -json does: two-space indented, one document.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Workload is the flag set localut-serve and localut-cluster share: what
// one appliance runs, how requests are shaped and batched, and the host
// worker pool.
type Workload struct {
	Model, Format, Design string
	Replicas, Ranks       int

	Duration time.Duration
	Seed     int64

	MaxBatch  int
	Scheduler string
	Quantum   int

	MinTokens, MaxTokens int
	MeanTokens           float64

	OutTokens     int
	OutTokensMean float64
	OutTokensMax  int

	Parallelism int
}

// Register binds the shared flags.
func (w *Workload) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Model, "model", "bert-base", "model: bert-base, opt-125m or vit-base")
	fs.StringVar(&w.Format, "fmt", "W1A3", "quantization format (WxAy)")
	fs.StringVar(&w.Design, "design", "LoCaLUT", "kernel design point")
	fs.IntVar(&w.Replicas, "replicas", 4, "independent serving groups each appliance's ranks split into")
	fs.IntVar(&w.Ranks, "ranks", 0, "override each appliance's rank count (0 = testbed 32)")
	fs.DurationVar(&w.Duration, "duration", 60*time.Second, "arrival window")
	fs.Int64Var(&w.Seed, "seed", 1, "workload seed")
	fs.IntVar(&w.MaxBatch, "max-batch", 8, "requests per batch")
	fs.StringVar(&w.Scheduler, "scheduler", "packed", "batch scheduler: fcfs or packed")
	fs.IntVar(&w.Quantum, "quantum", 64, "token padding quantum (shape bucket)")
	fs.IntVar(&w.MinTokens, "min-tokens", 16, "minimum request length")
	fs.IntVar(&w.MaxTokens, "max-tokens", 256, "maximum request length")
	fs.Float64Var(&w.MeanTokens, "mean-tokens", 0, "mean request length (0 = model sequence length)")
	fs.IntVar(&w.OutTokens, "out-tokens", 0, "fixed decode tokens per request (decoder models)")
	fs.Float64Var(&w.OutTokensMean, "out-tokens-mean", 0, "mean sampled decode tokens per request (overrides -out-tokens)")
	fs.IntVar(&w.OutTokensMax, "out-tokens-max", 0, "cap on sampled decode tokens (0 = 4x the mean)")
	fs.IntVar(&w.Parallelism, "j", 0, "host worker-pool size (0 = NumCPU); results are identical at any -j")
}

// System builds the facade system the flags describe: seed, worker pool
// and rank override.
func (w *Workload) System() *localut.System {
	opts := []localut.Option{localut.WithSeed(w.Seed), localut.WithParallelism(w.Parallelism)}
	if w.Ranks > 0 {
		opts = append(opts, localut.WithRanks(w.Ranks))
	}
	return localut.NewSystem(opts...)
}

// Names are the facade values the name flags select.
type Names struct {
	Model     localut.Model
	Format    localut.Format
	Design    localut.Design
	Scheduler localut.SchedulerPolicy
	// Designs is the command's comma-separated -designs list (nil when
	// the list is empty).
	Designs []localut.Design
}

// Names resolves -model, -fmt, -design, -scheduler and the command's
// -designs list through the facade's parsers; a bad name is an error rather
// than a default.
func (w *Workload) Names(designs string) (Names, error) {
	var n Names
	var err error
	if n.Model, err = localut.ParseModel(w.Model); err != nil {
		return n, err
	}
	if n.Format, err = localut.ParseFormat(w.Format); err != nil {
		return n, err
	}
	if n.Design, err = localut.ParseDesign(w.Design); err != nil {
		return n, err
	}
	if n.Scheduler, err = localut.ParseSchedulerPolicy(w.Scheduler); err != nil {
		return n, err
	}
	if designs == "" {
		return n, nil
	}
	for _, name := range strings.Split(designs, ",") {
		d, err := localut.ParseDesign(strings.TrimSpace(name))
		if err != nil {
			return n, err
		}
		n.Designs = append(n.Designs, d)
	}
	return n, nil
}

// Refuse is the error for the first flag set on fs (in name order) that a
// mode would drop: one refused reports true for. A mode honours every
// flag it does not refuse.
func Refuse(fs *flag.FlagSet, mode string, refused func(name string) bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && refused(f.Name) {
			err = fmt.Errorf("-%s is not honoured with %s", f.Name, mode)
		}
	})
	return err
}

// Among reports whether a flag name is one of names.
func Among(names ...string) func(string) bool {
	return func(name string) bool { return slices.Contains(names, name) }
}

// ParseNums parses a comma-separated list of sweep values ("25, 50,100").
// Every value must be positive, or non-negative when zeroOK (the sweeps
// that take 0 as their baseline point).
func ParseNums(s string, zeroOK bool) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v > 0 || (zeroOK && v == 0)) { // NaN fails both
			want := "positive numbers"
			if zeroOK {
				want = "non-negative numbers"
			}
			return nil, fmt.Errorf("bad sweep value %q (want %s)", p, want)
		}
		out = append(out, v)
	}
	return out, nil
}
