package lint

import (
	"strings"
)

// The waiver grammar. A finding is waived by a directive comment
//
//	//crossvet:<check> <reason>
//
// placed either at the end of the offending line or on its own line
// immediately above it. <check> is the finding's Check key (wallclock,
// rand, env, maprange, boundary, registry, errorcmp, unused-export);
// <reason> is a mandatory free-text justification — a reasonless
// waiver is itself a finding, as is a waiver that no longer waives
// anything, so stale exceptions cannot accumulate silently.
const waiverPrefix = "//crossvet:"

// waiver is one parsed directive.
type waiver struct {
	file   string
	line   int
	check  string
	reason string
	used   bool
}

// collectWaivers parses every //crossvet: directive in the module.
func collectWaivers(m *Module) []*waiver {
	var out []*waiver
	for _, p := range m.SortedPackages() {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, waiverPrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, waiverPrefix)
					check, reason, _ := strings.Cut(rest, " ")
					file, line, _ := m.Rel(c.Pos())
					out = append(out, &waiver{
						file:   file,
						line:   line,
						check:  check,
						reason: strings.TrimSpace(reason),
					})
				}
			}
		}
	}
	return out
}

// applyWaivers marks findings covered by a directive and appends
// waiver-hygiene findings: reasonless directives and unused ones.
func applyWaivers(findings []Finding, waivers []*waiver) []Finding {
	byFile := map[string][]*waiver{}
	for _, w := range waivers {
		byFile[w.file] = append(byFile[w.file], w)
	}
	for i := range findings {
		f := &findings[i]
		for _, w := range byFile[f.File] {
			if w.check != f.Check || w.reason == "" {
				continue
			}
			if w.line == f.Line || w.line == f.Line-1 {
				f.Waived = true
				f.Reason = w.reason
				w.used = true
			}
		}
	}
	for _, w := range waivers {
		switch {
		case w.reason == "":
			findings = append(findings, Finding{
				File: w.file, Line: w.line, Col: 1,
				Analyzer: "waiver", Check: "no-reason",
				Message: "waiver //crossvet:" + w.check + " carries no reason; every exception must be justified",
			})
		case !w.used:
			findings = append(findings, Finding{
				File: w.file, Line: w.line, Col: 1,
				Analyzer: "waiver", Check: "unused",
				Message: "waiver //crossvet:" + w.check + " waives nothing; delete it",
			})
		}
	}
	return findings
}
