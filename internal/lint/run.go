package lint

import (
	"fmt"
	"go/token"
)

// Analyzer is one contract checker.
type Analyzer struct {
	// Name labels the analyzer's findings.
	Name string
	// Contract is the one-line statement of the rule it enforces.
	Contract string
	run      func(m *Module, cfg *Config, r *reporter)
}

// Analyzers returns the suite in its fixed run order.
func Analyzers() []Analyzer {
	return []Analyzer{
		{
			Name: "determinism",
			Contract: "deterministic packages stay off the wall clock, math/rand, and the environment, " +
				"and never let map-iteration order feed rendered or hashed output",
			run: analyzeDeterminism,
		},
		{
			Name: "boundary",
			Contract: "exported simulator functions that call into another simulator package " +
				"thread the obs tracer across the cross-system boundary",
			run: analyzeBoundary,
		},
		{
			Name: "registry",
			Contract: "every inject registry signature has a classifier case and every " +
				"classifier case maps back to a registry entry",
			run: analyzeRegistry,
		},
		{
			Name: "errorcmp",
			Contract: "errors crossing a package boundary are matched with errors.Is, " +
				"never compared with == against a foreign sentinel",
			run: analyzeErrorCmp,
		},
		{
			Name: "unused-export",
			Contract: "every exported func, type and var of an internal package is used by " +
				"some non-test package, or waived as paper-table API",
			run: analyzeUnusedExport,
		},
	}
}

// reporter accumulates findings during a run.
type reporter struct {
	m        *Module
	analyzer string
	findings []Finding
}

// add records one finding at pos.
func (r *reporter) add(pos token.Pos, check, format string, args ...any) {
	file, line, col := r.m.Rel(pos)
	r.findings = append(r.findings, Finding{
		File: file, Line: line, Col: col,
		Analyzer: r.analyzer, Check: check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the full suite over the module and seals the report.
func Run(m *Module, cfg *Config) (*Report, error) {
	if err := validate(m, cfg); err != nil {
		return nil, err
	}
	r := &reporter{m: m}
	for _, a := range Analyzers() {
		r.analyzer = a.Name
		a.run(m, cfg, r)
	}
	rep := &Report{Module: m.Path, Findings: applyWaivers(r.findings, collectWaivers(m))}
	rep.seal()
	return rep, nil
}

// validate rejects configs whose package sets contradict each other:
// a package cannot be both deterministic and wall-clock-allowed.
func validate(m *Module, cfg *Config) error {
	for _, det := range cfg.DeterministicPkgs {
		for _, allowed := range cfg.WallClockAllowed {
			if det == allowed {
				return fmt.Errorf("lint: %s is listed both deterministic and wall-clock-allowed", det)
			}
		}
	}
	for _, allowed := range cfg.WallClockAllowed {
		if p := m.Pkgs[m.Path+"/"+allowed]; p != nil && cfg.isSim(p) {
			return fmt.Errorf("lint: simulator package %s cannot be wall-clock-allowed", allowed)
		}
	}
	return nil
}
