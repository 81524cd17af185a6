package core

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
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
	return runTables(cases, opts, applyOracles)
}

// runTables executes table cases on the deployment opts describe and
// judges their per-column results with oracles. Fuzz-campaign metrics
// (crossfuzz_*) are recorded when opts.Metrics is set.
func runTables(cases []*TableCase, opts RunOptions, oracles func([]*CaseResult) []Failure) (*RunResult, error) {
	d, err := opts.deployment()
	if err != nil {
		return nil, err
	}
	execute := func(tc *TableCase) {
		var started time.Time
		if opts.Metrics != nil {
			started = time.Now() //crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
		}
		span := d.caseSpan(opts.Tracer, tc.Plan, tc.Format, "table", tc.Label, "columns", strconv.Itoa(len(tc.Columns)))
		write := writeVia(d.Spark, d.Hive, span, tc.Plan.Write, tc.Label, tc.Format, tc.Columns)
		var read WideOutcome
		if write.Err == nil {
			read = readVia(d.ReadSpark, d.ReadHive, span, tc.Plan.Read, tc.Label)
		}
		span.Fail(write.Err).Fail(read.ReadErr).End()
		tc.results = columnResults(tc, span, write, read)
		d.release(tc.Label)
		if opts.Metrics != nil {
			opts.Metrics.Counter("crossfuzz_cases_total").Inc()
			opts.Metrics.Counter("crossfuzz_plan_cases_total", "plan", tc.Plan.Name(), "format", tc.Format).Inc()
			opts.Metrics.Histogram("crossfuzz_case_duration_ms", nil, "family", tc.Plan.Family).
				//crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
				Observe(float64(time.Since(started)) / float64(time.Millisecond))
		}
	}
	if err := RunPool(opts.Context, opts.Parallel, cases, execute); err != nil {
		return nil, err
	}

	var all []*CaseResult
	for _, tc := range cases {
		all = append(all, tc.results...)
	}
	failures := oracles(all)
	attachChains(opts.Tracer, failures)
	emitFailures(opts.OnFailure, failures)
	return &RunResult{Cases: all, Failures: failures, Report: buildReport(failures)}, nil
}

// columnResults projects a table case's row-level write/read outcome
// onto one pseudo CaseResult per column, the granularity the oracles
// operate at. Row-level warnings attach to every column: the engines
// report feedback per statement, not per column, so a warning caused by
// one column also counts as feedback for its neighbours. Every column
// carries the table case's span (nil when untraced), so a column's
// failure chain is its table case's subtree. The results live in one
// slab per table case, and each borrows its column's Input from the
// table case, so the caller must not change tc.Columns while the
// results are in use.
func columnResults(tc *TableCase, span *obs.Span, write WriteOutcome, read WideOutcome) []*CaseResult {
	out := make([]*CaseResult, len(tc.Columns))
	results := make([]CaseResult, len(tc.Columns))
	for i := range tc.Columns {
		results[i] = CaseResult{
			Input:  &tc.Columns[i].Input,
			Plan:   tc.Plan,
			Format: tc.Format,
			Table:  tc.Label,
			Write:  write,
			Read:   read.column(i),
			Span:   span,
			rank:   tableColumn(tc.Ord, i),
		}
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
