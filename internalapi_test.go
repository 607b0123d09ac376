package localut

import (
	"go/types"
	"sort"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/analysis/loader"
)

// testOnlyAllowed lists the exported internal functions and methods that
// only tests use and that stay anyway, each with the reason it is kept.
// Keys are types.Func.FullName with the module path cut off the front.
var testOnlyAllowed = map[string]string{
	"perm.Apply":                  "test oracle: the permutation SortPerm's output is checked against",
	"quant.UnpackVector":          "test oracle: the inverse of PackVector that packed indices are checked against",
	"quant.Quantize":              "test oracle: the absmax baseline the calibrated-quantizer tests compare against",
	"(fp.FP4).Encode":             "test oracle: the inverse of Decode the round-trip tests check against",
	"(fp.FP8).Encode":             "test oracle: the inverse of Decode the round-trip tests check against",
	"(fp.FP16).Encode":            "test oracle: the inverse of Decode the round-trip tests check against",
	"banksim.DDR4":                "test timing: the second timing set the bank-model properties run under",
	"lut.ResetCache":              "test isolation hook: empties the process-wide LUT cache between tests",
	"analysis/analysistest.Run":   "test harness: runs an analyzer over its testdata fixtures",
	"(*lut.OpPacked).Lookup":      "test oracle: the OP table tests read every entry through it",
	"(*trace.Histogram).Add":      "follow-up: ROADMAP item 2's Histogram cut (only ToFixed fills a Histogram; the stats tests feed it through Add)",
	"(*trace.Histogram).Quantile": "follow-up: ROADMAP item 2's Histogram cut (goes with Add)",
}

// TestNoTestOnlyInternalAPI fails when an exported function or method
// declared under an internal/ directory is used by no non-test Go file of
// the module (commands included). Such a function is reachable only from
// tests, so it is dead code with a test attached.
//
// Uses are resolved by type, so a method is live only if a non-test file
// uses that method of that type. A call through an interface may reach any
// method of that name, so a method is also live if some non-test file calls
// an interface method of its name, or if it is String or Error, which the
// standard library calls.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	pkgs, err := loader.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}                                      // full names of the funcs non-test files use
	viaInterface := map[string]bool{"String": true, "Error": true} // method names called through an interface
	var candidates []*types.Func
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			used[fn.FullName()] = true
			if isInterfaceMethod(fn) {
				viaInterface[fn.Name()] = true
			}
		}
		if !strings.Contains(p.Path, "/internal/") {
			continue
		}
		for _, obj := range p.TypesInfo.Defs {
			if fn, ok := obj.(*types.Func); ok && fn.Exported() && !isInterfaceMethod(fn) {
				candidates = append(candidates, fn)
			}
		}
	}

	seen := map[string]bool{}
	var dead []string
	for _, fn := range candidates {
		method := fn.Type().(*types.Signature).Recv() != nil
		if used[fn.FullName()] || method && viaInterface[fn.Name()] {
			continue
		}
		name := strings.NewReplacer("github.com/ais-snu/localut/internal/", "",
			"github.com/ais-snu/localut/", "").Replace(fn.FullName())
		seen[name] = true
		if _, ok := testOnlyAllowed[name]; !ok {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported from an internal package but only tests use it: delete it, or unexport it if its own package uses it", name)
	}
	for name := range testOnlyAllowed {
		if !seen[name] {
			t.Errorf("allowlisted %s now has a non-test use or is gone: drop it from testOnlyAllowed", name)
		}
	}
}

// isInterfaceMethod reports whether fn is declared by an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}
