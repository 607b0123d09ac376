// Package determlint assembles the project's determinism analyzers —
// maporder, walltime, rngstream, nilrecv — into one suite with the
// house scoping rules, shared by the cmd/determlint driver (standalone
// and `go vet -vettool` modes) and by the self-check test that keeps
// the tree clean.
//
// Scoping: maporder, rngstream, and nilrecv run everywhere — a CLI
// printing a table in map order corrupts a report just as surely as a
// simulator kernel. walltime runs only on simulation packages: cmd/*
// legitimately measures host wall-clock, and internal/prof exists to
// wrap pprof; everything else in the module must advance only the
// simulated clock.
package determlint

import (
	"fmt"
	"strings"

	"github.com/ais-snu/localut/internal/analysis"
	"github.com/ais-snu/localut/internal/analysis/loader"
	"github.com/ais-snu/localut/internal/analysis/maporder"
	"github.com/ais-snu/localut/internal/analysis/nilrecv"
	"github.com/ais-snu/localut/internal/analysis/rngstream"
	"github.com/ais-snu/localut/internal/analysis/walltime"
)

// ModulePath is the import prefix the scoping rules strip.
const ModulePath = "github.com/ais-snu/localut"

// wallClockExempt lists module-relative path prefixes where host
// wall-clock use is part of the job.
var wallClockExempt = []string{"cmd/", "internal/prof"}

// For returns the analyzers that apply to the package at importPath.
func For(importPath string) []*analysis.Analyzer {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, ModulePath), "/")
	out := []*analysis.Analyzer{maporder.Analyzer, nilrecv.Analyzer, rngstream.Analyzer}
	for _, p := range wallClockExempt {
		if strings.HasPrefix(rel, p) {
			return out
		}
	}
	return append(out, walltime.Analyzer)
}

// Check loads the packages matching patterns in the module at dir, runs
// the scoped suite on each, and returns every unsuppressed diagnostic
// pre-rendered as "path:line:col: [analyzer] message", sorted within
// each package by position. Test files are not analyzed: the
// determinism contract binds the simulator, and tests pin it by other
// means.
func Check(dir string, patterns ...string) ([]string, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Pkg, pkg.TypesInfo, For(pkg.Path))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.Path, err)
		}
		for _, d := range diags {
			out = append(out, d.Format(pkg.Fset))
		}
	}
	return out, nil
}
