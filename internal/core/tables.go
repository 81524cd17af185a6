package core

import (
	"strconv"
	"strings"
)

// Explicit-assignment table cases generalize the harness beyond the
// fixed input × plan × format cross product of Run: a TableCase pins a
// multi-column schema to one plan and one backend format. This is the
// execution entry the generative workloads (internal/fuzzgen) use —
// randomized schemas carry their own interface/format assignments, and
// differential coverage comes from sibling cases that share column IDs
// rather than from materializing the full matrix.

// TableCase is one explicit case: a table of columns written through
// the plan's write interface and read back through its read interface.
type TableCase struct {
	// Label names the case; it doubles as the table name and must be
	// unique within a run.
	Label   string
	Columns []WideColumn
	Plan    Plan
	Format  string

	// Ord is the case's ordinal in its workload's global enumeration
	// (fuzzgen stamps case-index × max-assignments + assignment). Column
	// ranks derive from it, so a seed-range shard of a campaign ranks
	// its failures exactly as the full campaign would.
	Ord int64

	// results, populated by RunTables: one pseudo CaseResult per column,
	// whose Input points into Columns.
	results []*CaseResult
}

// Results returns the per-column case results of an executed TableCase.
// Result i's Input is &tc.Columns[i].Input, shared with every table case
// built over the same columns.
func (tc *TableCase) Results() []*CaseResult { return tc.results }

// RunTables executes the given cases through the harness worker pool
// under one deployment, then applies the three oracles over the
// per-column results and clusters failures. The differential oracle
// pairs columns that share an Input ID across cases: two cases carrying
// the same columns through different plans of a family (or different
// formats of a plan) form a differential probe group.
func RunTables(cases []*TableCase, opts RunOptions) (*RunResult, error) {
	return runTables(cases, opts, &crossfuzzSeries, applyOracles)
}

// runTables executes table cases on the deployment opts describe, one
// N-column unit each, recording series when opts.Metrics is set, and
// judges their per-column results with oracles.
func runTables(cases []*TableCase, opts RunOptions, series *caseSeries, oracles func([]*CaseResult) []Failure) (*RunResult, error) {
	l, err := opts.loop(series, oracles)
	if err != nil {
		return nil, err
	}
	var all []*CaseResult
	for _, tc := range cases {
		tc.results = columnResults(tc)
		all = append(all, tc.results...)
	}
	return l.run(all, len(cases), func(i int) unit {
		tc := cases[i]
		return unit{plan: tc.Plan, format: tc.Format, table: tc.Label, cols: tc.Columns, res: tc.results,
			attrs: [4]string{"table", tc.Label, "columns", strconv.Itoa(len(tc.Columns))}}
	})
}

// columnResults lays out a table case's results: one pseudo CaseResult
// per column, the granularity the oracles operate at, onto which the
// run projects the row-level write and read. Row-level warnings attach
// to every column: the engines report feedback per statement, so a
// warning caused by one column also counts for its neighbours. Every
// column carries the table case's span, so its failure chain is the
// table case's subtree. The results live in one slab per table case
// and borrow their Inputs from tc.Columns, which must not change while
// they are in use.
func columnResults(tc *TableCase) []*CaseResult {
	out := make([]*CaseResult, len(tc.Columns))
	results := make([]CaseResult, len(tc.Columns))
	for i := range tc.Columns {
		results[i] = CaseResult{Input: &tc.Columns[i].Input, Plan: tc.Plan, Format: tc.Format, Table: tc.Label,
			rank: tableColumn(tc.Ord, i)}
		out[i] = &results[i]
	}
	return out
}

func createTableSQL(table, format string, cols []WideColumn) string {
	var buf [8]string // the common widths stay off the heap
	types := buf[:0]
	n := len("CREATE TABLE  () STORED AS ") + len(table) + len(format)
	for i, c := range cols {
		types = append(types, c.Input.Type.String())
		n += len(", ") + len(c.Name) + len(" ") + len(types[i])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("CREATE TABLE ")
	b.WriteString(table)
	b.WriteString(" (")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(types[i])
	}
	b.WriteString(") STORED AS ")
	b.WriteString(format)
	return b.String()
}

func insertSQL(table string, cols []WideColumn) string {
	n := len("INSERT INTO  VALUES ()") + len(table)
	for _, c := range cols {
		n += len(", ") + len(c.Input.Literal)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES (")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Input.Literal)
	}
	b.WriteByte(')')
	return b.String()
}
