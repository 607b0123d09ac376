package determlint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/analysis/determlint"
)

// moduleRoot locates the enclosing module.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// TestTreeClean is the linter's own acceptance bar: the full suite over
// ./... must report zero unsuppressed diagnostics. Any new map-order
// hazard, wall-clock read, unregistered RNG stream, or missing nil
// guard fails this test until it is fixed or given a reasoned
// suppression.
func TestTreeClean(t *testing.T) {
	findings, err := determlint.Check(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("determlint over ./...: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestScope pins the house scoping rules: walltime binds simulation
// packages only, while the other analyzers run everywhere.
func TestScope(t *testing.T) {
	names := func(path string) map[string]bool {
		out := map[string]bool{}
		for _, a := range determlint.For(path) {
			out[a.Name] = true
		}
		return out
	}
	const mod = determlint.ModulePath
	for _, tc := range []struct {
		path     string
		walltime bool
	}{
		{mod + "/internal/serve", true},
		{mod + "/internal/cluster", true},
		{mod + "/internal/gemm", true},
		{mod + "/internal/obs", true},
		{mod + "/internal/workload", true},
		{mod, true},
		{mod + "/cmd/localut-serve", false},
		{mod + "/cmd/determlint", false},
		{mod + "/internal/prof", false},
	} {
		got := names(tc.path)
		if got["walltime"] != tc.walltime {
			t.Errorf("%s: walltime scoped %v, want %v", tc.path, got["walltime"], tc.walltime)
		}
		for _, always := range []string{"maporder", "rngstream", "nilrecv"} {
			if !got[always] {
				t.Errorf("%s: analyzer %s must apply everywhere", tc.path, always)
			}
		}
	}
}
