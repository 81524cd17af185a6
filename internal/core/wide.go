package core

import (
	"fmt"
	"strings"
)

// Wide-table testing extends the single-column plans of Figure 6 with
// tables that carry one column per data type at once. Multi-column
// tables exercise the interplay the single-column corpus cannot: column
// resolution by position versus by name across every type
// simultaneously, which is where the positional-ORC and case-folding
// behaviours interact.

// WideColumn pairs a corpus input with its column in the wide table.
type WideColumn struct {
	Name  string
	Input Input
}

// BuildWideTable selects one valid, non-null input per distinct type
// from the corpus and lays them out as the columns of a single table.
// Column names are deliberately mixed-case.
func BuildWideTable(inputs []Input) []WideColumn {
	seen := map[string]bool{}
	var out []WideColumn
	for _, in := range inputs {
		if !in.Valid || in.Literal == "NULL" {
			continue
		}
		key := in.Type.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, WideColumn{
			Name:  fmt.Sprintf("Col%d%s", len(out), strings.ToUpper(in.Type.Kind.String()[:1])),
			Input: in,
		})
	}
	return out
}

// WideResult is a wide-table run's outcome.
type WideResult struct {
	Columns  []WideColumn
	Failures []Failure
	Report   *Report
}

// RunWide executes the wide-table cross-test: per plan and format, one
// table case carrying every column, written through the plan's write
// interface and read back through its read interface. The write-read
// oracle applies per column; the differential oracle compares each
// column's outcome across formats within a plan.
func RunWide(inputs []Input, opts RunOptions) (*WideResult, error) {
	cols := BuildWideTable(inputs)
	var cases []*TableCase
	for _, plan := range Plans() {
		for _, format := range Formats() {
			cases = append(cases, &TableCase{
				Label: "wide_" + plan.Name() + "_" + format, Columns: cols,
				Plan: plan, Format: format, Ord: int64(len(cases)),
			})
		}
	}
	res, err := runTables(cases, opts, nil, func(all []*CaseResult) []Failure {
		return append(writeReadOracle(all), newProbeGroups(all).failures(acrossFormats)...)
	})
	if err != nil {
		return nil, err
	}
	return &WideResult{Columns: cols, Failures: res.Failures, Report: res.Report}, nil
}
