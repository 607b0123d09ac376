package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestFiguresCyclesOnlyGolden pins the full-scale cycles-only figures the
// paper-reproduction benchmark regenerates, plus fig21 (it runs the same LUT
// unit loop as fig20), byte for byte. TestFigureModeEquivalence cannot see a
// bank-simulator drift, since banksim runs the same code in both modes; this
// can. A diff means the simulation's numbers changed, which must be
// deliberate; run `go test ./internal/experiments -run Golden -update` to
// re-bless.
func TestFiguresCyclesOnlyGolden(t *testing.T) {
	s := New()
	s.Mode = kernels.CyclesOnly
	s.Parallelism = 1
	var results []*Result
	for _, id := range []string{"fig09", "fig10", "fig16", "fig18", "fig19", "fig20", "fig21"} {
		r, err := s.RunFigure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		results = append(results, r)
	}
	got := []byte(ReportMarkdown(results))
	path := filepath.Join("testdata", "figures_cyclesonly.golden.md")
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
	if string(got) != string(want) {
		t.Errorf("cycles-only figures differ from %s:\n got:\n%s\n want:\n%s", path, got, want)
	}
}
