package cli

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"github.com/ais-snu/localut"
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

// TestWorkloadNames checks the name flags resolve to facade values (model,
// design and scheduler in any case), a -designs list splits and trims, and
// a bad name is an error rather than a default.
func TestWorkloadNames(t *testing.T) {
	parse := func(args ...string) *Workload {
		var w Workload
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		w.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return &w
	}
	n, err := parse("-model", "OPT-125M", "-fmt", "W2A2", "-design", "op+lc", "-scheduler", "FCFS").Names("LoCaLUT, naivepim")
	if err != nil {
		t.Fatal(err)
	}
	if n.Model != localut.OPT125M || n.Format != localut.W2A2 || n.Design != localut.DesignOPLC ||
		n.Scheduler != localut.ScheduleFCFS || !reflect.DeepEqual(n.Designs, []localut.Design{localut.DesignLoCaLUT, localut.DesignNaive}) {
		t.Errorf("Names() = %+v", n)
	}
	if n, err := parse().Names(""); err != nil || n.Designs != nil || n.Scheduler != localut.SchedulePacked {
		t.Errorf("default Names() = %+v, %v", n, err)
	}
	for _, bad := range [][]string{{"-model", "gpt"}, {"-fmt", "W9"}, {"-design", "fast"}, {"-scheduler", "lifo"}} {
		if _, err := parse(bad...).Names(""); err == nil {
			t.Errorf("Names() accepted %v", bad)
		}
	}
	if _, err := parse().Names("LoCaLUT,,OP"); err == nil {
		t.Error("Names() accepted an empty -designs entry")
	}
}

// TestRefuse checks a refused flag is named only when it was set, and a
// flag set to its default value still counts as set.
func TestRefuse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a := fs.Int("a", 0, "")
	fs.Int("b", 0, "")
	fs.Int("c", 0, "")
	if err := fs.Parse([]string{"-c", "0", "-a", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := Refuse(fs, "-sweep", Among("b")); err != nil {
		t.Errorf("unset -b refused: %v", err)
	}
	if err := Refuse(fs, "-sweep", Among("b", "c")); err == nil || err.Error() != "-c is not honoured with -sweep" {
		t.Errorf("-c set to its default: got %v", err)
	}
	if err := Refuse(fs, "-chaos", func(name string) bool { return name != "c" }); err == nil || *a != 1 ||
		err.Error() != "-a is not honoured with -chaos" {
		t.Errorf("allow-list refusal: got %v", err)
	}
}
