package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/obs"
)

// A traced run over the base corpus reports exactly what an untraced
// one does: the same rendered text (by sha256) and the same JSON bytes.
// Tracing only records spans beside the run.
func TestTracedRunReportUnchanged(t *testing.T) {
	inputs, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(inputs, RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(nil)
	traced, err := Run(inputs, RunOptions{Parallel: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("the traced run recorded no span")
	}
	if a, b := HashBytes([]byte(plain.Report.Render())), HashBytes([]byte(traced.Report.Render())); a != b {
		t.Errorf("Render sha256: untraced %s, traced %s", a, b)
	}
	pj, err := json.Marshal(plain.Report.JSON())
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(traced.Report.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, tj) {
		t.Errorf("JSON report differs under tracing:\nuntraced %s\n  traced %s", pj, tj)
	}
}

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

// TestRunMetrics pins the metric series each harness entry point
// records: Run the crosstest_* series, RunTables the crossfuzz_* case
// series, RunWide and RunPartitions none. For Run it also checks the
// acceptance arithmetic: the per-oracle case counts partition the
// total, and the failure counters match the report.
func TestRunMetrics(t *testing.T) {
	inputs := subset(t, "char_short", "bool_invalid_yes", "ts_noon")
	var cols []WideColumn
	for i, in := range inputs {
		cols = append(cols, WideColumn{Name: fmt.Sprintf("c%d", i), Input: in})
	}
	var tables []*TableCase
	for _, p := range Plans() {
		tables = append(tables, &TableCase{Label: "m_" + p.Name(), Columns: cols, Plan: p, Format: "orc", Ord: int64(len(tables))})
	}
	for _, tc := range []struct {
		name, prefix string // prefix names the mode's series
		run          func(RunOptions) (*RunResult, error)
		series       []string // without the prefix, sorted
		cases        int      // what <prefix>cases_total counts
	}{
		{"Run", "crosstest_", func(o RunOptions) (*RunResult, error) { return Run(inputs, o) },
			[]string{"case_duration_ms_bucket", "case_duration_ms_count", "case_duration_ms_sum", "cases_total",
				"distinct_discrepancies", "oracle_cases_total", "oracle_failures_total", "plan_cases_total"},
			len(inputs) * len(Plans()) * len(Formats())},
		{"RunTables", "crossfuzz_", func(o RunOptions) (*RunResult, error) { return RunTables(tables, o) },
			[]string{"case_duration_ms_bucket", "case_duration_ms_count", "case_duration_ms_sum", "cases_total",
				"plan_cases_total"},
			len(tables)},
		{"RunWide", "", func(o RunOptions) (*RunResult, error) {
			w, err := RunWide(inputs, o)
			if err != nil {
				return nil, err
			}
			return &RunResult{Failures: w.Failures, Report: w.Report}, nil
		}, nil, 0},
		{"RunPartitions", "", func(o RunOptions) (*RunResult, error) { return RunPartitions("orc", o) }, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := tc.run(RunOptions{Metrics: reg, Parallel: 2})
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
			var names []string
			for key := range got {
				name, _, _ := strings.Cut(key, "{")
				if name = strings.TrimPrefix(name, tc.prefix); !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
			slices.Sort(names)
			if !slices.Equal(names, tc.series) {
				t.Errorf("series %q (past the prefix %q), want %q", names, tc.prefix, tc.series)
			}
			if tc.prefix == "" {
				return
			}
			total := got[tc.prefix+"cases_total"]
			if total != float64(tc.cases) {
				t.Errorf("%scases_total = %v, want %d", tc.prefix, total, tc.cases)
			}
			if tc.name != "Run" {
				return
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
		})
	}
}
