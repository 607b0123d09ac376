package cli

import (
	"flag"
	"io"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
)

// TestParseNums covers the sweep-list parser's error paths, and the zero
// baseline point only the -mttf-sweep and -hedge-sweep lists accept.
func TestParseNums(t *testing.T) {
	if got, err := ParseNums("25, 50,100", false); err != nil || len(got) != 3 || got[2] != 100 {
		t.Errorf("ParseNums = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "10,-5", "10,,20", "0", "NaN"} {
		if _, err := ParseNums(bad, false); err == nil {
			t.Errorf("ParseNums(%q) accepted", bad)
		}
	}
	if got, err := ParseNums("0,0.5", true); err != nil || len(got) != 2 || got[0] != 0 {
		t.Errorf("ParseNums with a zero baseline = %v, %v", got, err)
	}
	if _, err := ParseNums("0,-1", true); err == nil {
		t.Error("ParseNums accepted a negative value")
	}
}

// TestWorkloadInstance checks the flags reach the serve.Config template,
// names parse in any case, and a bad name is an error rather than a default.
func TestWorkloadInstance(t *testing.T) {
	parse := func(args ...string) (*Workload, error) {
		var w Workload
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		w.Register(fs)
		return &w, fs.Parse(args)
	}
	w, err := parse("-model", "OPT-125M", "-design", "op+lc", "-scheduler", "FCFS", "-ranks", "8", "-out-tokens", "4")
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if c.Model.Name != "OPT-125M" || c.Variant != kernels.OPLC || c.Scheduler.String() != "fcfs" ||
		c.Engine == nil || c.Engine.Cfg.Ranks != 8 || c.OutTokens != 4 || c.Replicas != 4 || c.TokenQuantum != 64 {
		t.Errorf("Instance() = %+v", c)
	}
	for _, bad := range [][]string{{"-model", "gpt"}, {"-fmt", "W9"}, {"-design", "fast"}, {"-scheduler", "lifo"}} {
		w, err := parse(bad...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Instance(); err == nil {
			t.Errorf("Instance() accepted %v", bad)
		}
	}
	if vs, err := Variants("LoCaLUT, naivepim"); err != nil || len(vs) != 2 || vs[1] != kernels.Naive {
		t.Errorf("Variants = %v, %v", vs, err)
	}
}
