package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/csi"
	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/sqlval"
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

	// results, populated by RunTables: one pseudo CaseResult per column.
	results []*CaseResult
}

// Results returns the per-column case results of an executed TableCase.
func (tc *TableCase) Results() []*CaseResult { return tc.results }

// RunTables executes the given cases through the harness worker pool
// under one deployment, then applies the three oracles over the
// per-column results and clusters failures. The differential oracle
// pairs columns that share an Input ID across cases: two cases carrying
// the same columns through different plans of a family (or different
// formats of a plan) form a differential probe group.
func RunTables(cases []*TableCase, opts RunOptions) (*RunResult, error) {
	if opts.Parallel < 0 {
		return nil, fmt.Errorf("core: Parallel must be non-negative, got %d", opts.Parallel)
	}
	d := NewDeployment()
	if opts.Versions != nil {
		var err error
		if d, err = NewSkewDeployment(*opts.Versions); err != nil {
			return nil, err
		}
	}
	d.SetConf(opts.SparkConf)
	if opts.Tracer != nil {
		d.SetTracer(opts.Tracer)
	}

	execute := func(tc *TableCase) {
		var started time.Time
		if opts.Metrics != nil {
			started = time.Now() //crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
		}
		var span *obs.Span
		if opts.Tracer != nil {
			span = opts.Tracer.Span(nil, IfaceSystem(tc.Plan.Write), csi.DataPlane, tc.Plan.Name()+"/"+tc.Format).
				Set("table", tc.Label).Set("columns", fmt.Sprint(len(tc.Columns)))
			if d.Pair != nil {
				span.Set(obs.AttrWriterStack, d.Pair.Writer.String()).
					Set(obs.AttrReaderStack, d.Pair.Reader.String())
			}
		}
		write := d.writeTable(span, tc.Plan.Write, tc.Label, tc.Format, tc.Columns)
		var outcome WideOutcome
		outcome.WriteErr = write.Err
		if write.Err == nil {
			outcome = d.readTable(span, tc.Plan.Read, tc.Label)
		}
		span.Fail(write.Err).Fail(outcome.ReadErr).End()
		tc.results = columnResults(tc, span, write, outcome)
		if opts.Metrics != nil {
			opts.Metrics.Counter("crossfuzz_cases_total").Inc()
			opts.Metrics.Counter("crossfuzz_plan_cases_total", "plan", tc.Plan.Name(), "format", tc.Format).Inc()
			opts.Metrics.Histogram("crossfuzz_case_duration_ms", nil, "family", tc.Plan.Family).
				//crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
				Observe(float64(time.Since(started)) / float64(time.Millisecond))
		}
	}
	if err := runPool(opts.Context, opts.Parallel, cases, execute); err != nil {
		return nil, err
	}

	var all []*CaseResult
	for _, tc := range cases {
		all = append(all, tc.results...)
	}
	failures := applyOracles(all)
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
// failure chain is its table case's subtree. The results and their
// inputs live in one slab each per table case.
func columnResults(tc *TableCase, span *obs.Span, write WriteOutcome, outcome WideOutcome) []*CaseResult {
	out := make([]*CaseResult, len(tc.Columns))
	results := make([]CaseResult, len(tc.Columns))
	inputs := make([]Input, len(tc.Columns))
	for i, col := range tc.Columns {
		inputs[i] = col.Input
		pseudo := &results[i]
		*pseudo = CaseResult{
			Input:  &inputs[i],
			Plan:   tc.Plan,
			Format: tc.Format,
			Table:  tc.Label,
			Write:  WriteOutcome{Err: write.Err, Warnings: write.Warnings},
			Span:   span,
			Rank:   tableRank(tc.Ord, i),
		}
		pseudo.Read.Err = outcome.ReadErr
		pseudo.Read.Warnings = outcome.Warnings
		if write.Err == nil && outcome.ReadErr == nil && i < len(outcome.Row) {
			pseudo.Read.HasRow = true
			pseudo.Read.Value = outcome.Row[i]
			if i < len(outcome.Columns) {
				pseudo.Read.Column = outcome.Columns[i].Name
			}
		}
		out[i] = pseudo
	}
	return out
}

// writeTable creates and populates a multi-column table through an
// interface, keeping statement-level warnings (unlike the wide-table
// path, the error-handling oracle needs them).
func (d *Deployment) writeTable(parent *obs.Span, iface Iface, table, format string, cols []WideColumn) WriteOutcome {
	switch iface {
	case SparkSQL, HiveQL:
		create := createTableSQL(table, format, cols)
		insert := insertSQL(table, cols)
		if iface == SparkSQL {
			if _, err := d.Spark.SQLSpan(parent, create); err != nil {
				return WriteOutcome{Err: err}
			}
			res, err := d.Spark.SQLSpan(parent, insert)
			if err != nil {
				return WriteOutcome{Err: err}
			}
			return WriteOutcome{Warnings: res.Warnings}
		}
		if _, err := d.Hive.ExecuteSpan(parent, create); err != nil {
			return WriteOutcome{Err: err}
		}
		res, err := d.Hive.ExecuteSpan(parent, insert)
		if err != nil {
			return WriteOutcome{Err: err}
		}
		return WriteOutcome{Warnings: res.Warnings}
	case DataFrame:
		schema := serde.Schema{}
		row := make(sqlval.Row, len(cols))
		for i, c := range cols {
			schema.Columns = append(schema.Columns, serde.Column{Name: c.Name, Type: c.Input.Type})
			row[i] = c.Input.Value
		}
		df, err := d.Spark.CreateDataFrame(schema, []sqlval.Row{row})
		if err != nil {
			return WriteOutcome{Err: err}
		}
		return WriteOutcome{Err: df.SaveAsTableSpan(parent, table, format)}
	default:
		return WriteOutcome{Err: fmt.Errorf("core: unknown interface %q", iface)}
	}
}

// readTable fetches the table's single row through an interface, on
// the reader stack.
func (d *Deployment) readTable(parent *obs.Span, iface Iface, table string) WideOutcome {
	out := WideOutcome{}
	fill := func(cols []serde.Column, rows []sqlval.Row, warnings []string) {
		out.Columns, out.Warnings = cols, warnings
		if len(rows) > 0 {
			out.Row = rows[0]
		}
	}
	switch iface {
	case SparkSQL:
		res, err := d.ReadSpark.SQLSpan(parent, "SELECT * FROM "+table)
		if err != nil {
			out.ReadErr = err
			return out
		}
		fill(res.Columns, res.Rows, res.Warnings)
	case DataFrame:
		res, err := d.ReadSpark.TableSpan(parent, table)
		if err != nil {
			out.ReadErr = err
			return out
		}
		fill(res.Columns, res.Rows, res.Warnings)
	case HiveQL:
		res, err := d.ReadHive.ExecuteSpan(parent, "SELECT * FROM "+table)
		if err != nil {
			out.ReadErr = err
			return out
		}
		fill(res.Columns, res.Rows, res.Warnings)
	default:
		out.ReadErr = fmt.Errorf("core: unknown interface %q", iface)
	}
	return out
}

func createTableSQL(table, format string, cols []WideColumn) string {
	types := make([]string, len(cols))
	n := len("CREATE TABLE  () STORED AS ") + len(table) + len(format)
	for i, c := range cols {
		types[i] = c.Input.Type.String()
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
