package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/obs"
)

// TestRunWithTracerAttachesChains runs traced harness passes — the
// input × plan × format cross product and explicit multi-column table
// cases — and checks every failure carries a cross-system propagation
// chain reconstructed from its own case's span subtree.
func TestRunWithTracerAttachesChains(t *testing.T) {
	inputs := subset(t, "char_short", "bool_invalid_yes", "ts_noon")
	runs := []struct {
		name string
		run  func(*obs.Tracer) (*RunResult, error)
	}{
		{"Run", func(tr *obs.Tracer) (*RunResult, error) {
			return Run(inputs, RunOptions{Tracer: tr, Parallel: 4})
		}},
		{"RunTables", func(tr *obs.Tracer) (*RunResult, error) {
			var cols []WideColumn
			for i, in := range inputs {
				cols = append(cols, WideColumn{Name: fmt.Sprintf("c%d", i), Input: in})
			}
			var cases []*TableCase
			for _, p := range Plans() {
				for _, format := range Formats() {
					cases = append(cases, &TableCase{
						Label: fmt.Sprintf("tc_%s_%s", p.Name(), format), Columns: cols,
						Plan: p, Format: format, Ord: int64(len(cases)),
					})
				}
			}
			return RunTables(cases, RunOptions{Tracer: tr, Parallel: 4})
		}},
	}
	for _, rc := range runs {
		t.Run(rc.name, func(t *testing.T) {
			tr := obs.NewTracer(nil)
			res, err := rc.run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) == 0 {
				t.Fatal("subset produced no failures")
			}
			for _, c := range res.Cases {
				if c.Span == nil {
					t.Fatal("case has no span")
				}
			}
			spans := tr.Snapshot()
			for _, f := range res.Failures {
				if f.Chain == "" {
					t.Fatalf("failure %s has no chain", f.Detail)
				}
				hops := tr.Chain(f.Case.Span)
				if got := obs.RenderChain(hops); f.Chain != got {
					t.Errorf("failure chain %q, want its case's chain %q", f.Chain, got)
				}
				var systems []csi.System
				for _, h := range hops {
					if !slices.Contains(systems, h.System) {
						systems = append(systems, h.System)
					}
				}
				if len(systems) < 2 {
					t.Errorf("chain for %s crosses %d systems, want >= 2: %s", f.Case.Describe(), len(systems), f.Chain)
				}
				// Causal order: the writing interface's engine leads the chain.
				if want := IfaceSystem(f.Case.Plan.Write); hops[0].System != want {
					t.Errorf("chain starts at %s, want %s: %s", hops[0].System, want, f.Chain)
				}
				if !strings.Contains(f.Chain, "→") {
					t.Errorf("chain not rendered with arrows: %q", f.Chain)
				}
				// Isolation under the parallel run: the chain folds exactly
				// the spans of the case's own tree, none of another case.
				folded := 0
				for _, h := range hops {
					folded += h.Spans
				}
				if want := subtreeSize(spans, f.Case.Span.ID); folded != want {
					t.Errorf("chain for %s folds %d spans, its case has %d: %s", f.Case.Describe(), folded, want, f.Chain)
				}
			}
		})
	}
}

// subtreeSize counts the spans rooted at rootID.
func subtreeSize(spans []obs.Span, rootID int64) int {
	in := map[int64]bool{rootID: true}
	n := 0
	for _, s := range spans {
		if in[s.ID] || in[s.ParentID] {
			in[s.ID] = true
			n++
		}
	}
	return n
}

// TestRunMetrics checks the acceptance arithmetic: the per-oracle case
// counts partition the total, and failure counters match the report.
func TestRunMetrics(t *testing.T) {
	inputs := subset(t, "char_short", "bool_invalid_yes", "ts_noon")
	reg := obs.NewRegistry()
	res, err := Run(inputs, RunOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("metrics are not valid Prometheus text: %v", err)
	}
	total := got["crosstest_cases_total"]
	if total != float64(len(res.Cases)) {
		t.Errorf("crosstest_cases_total = %v, want %d", total, len(res.Cases))
	}
	wr := got[`crosstest_oracle_cases_total{oracle="wr"}`]
	eh := got[`crosstest_oracle_cases_total{oracle="eh"}`]
	if wr+eh != total {
		t.Errorf("oracle case counts %v + %v != total %v", wr, eh, total)
	}
	for _, o := range []csi.Oracle{csi.OracleWriteRead, csi.OracleErrorHandling, csi.OracleDifferential} {
		key := `crosstest_oracle_failures_total{oracle="` + o.String() + `"}`
		if got[key] != float64(res.Report.ByOracle[o]) {
			t.Errorf("%s = %v, want %d", key, got[key], res.Report.ByOracle[o])
		}
	}
	if got["crosstest_distinct_discrepancies"] != float64(len(res.Report.Found)) {
		t.Errorf("distinct discrepancies gauge = %v, want %d",
			got["crosstest_distinct_discrepancies"], len(res.Report.Found))
	}
	if got[`crosstest_case_duration_ms_count{family="ss"}`] == 0 {
		t.Error("no duration observations for family ss")
	}
}
