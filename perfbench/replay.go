package main

import (
	"fmt"
	"path"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hdfssim"
	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/versions"
)

// The per-layer numbers of the data plane come from replaying a
// workload's cases sequentially through the public calls of a
// core.Deployment, once untraced for the case times and once with a
// nanosecond tracer attached for the engines' spans. Passing a tracer
// through core.RunOptions instead would cost a span-tree copy per
// oracle failure, inflating the run 20-200x. Every replay is checked
// against the harness run it stands for: a case whose calls fail
// differently, or read back another value, makes the run wrong, so a
// change to core that the replay no longer follows cannot go unnoticed.

// replayCase is one table written through a plan's write interface and
// read back through its read interface — a corpus case is a one-column
// table named core.ColumnName, a fuzz case a core.TableCase.
type replayCase struct {
	label  string
	plan   core.Plan
	format string
	cols   []core.WideColumn
}

// deployUnit is the cases one deployment serves: a corpus run, a skew
// cell (corpus cases only), or a fuzz campaign's configuration batch.
// want holds the harness's outcome of each case, by table name.
type deployUnit struct {
	conf  map[string]string
	pair  *versions.Pair
	cases []replayCase
	want  map[string]outcome
}

// corpusCases enumerates core.Run's cases: input × plan × format, with
// core.Run's table names, restricted to the given plan families.
func corpusCases(inputs []core.Input, families []string) []replayCase {
	var out []replayCase
	for _, in := range inputs {
		for _, plan := range core.Plans() {
			if len(families) > 0 && !contains(families, plan.Family) {
				continue
			}
			for _, format := range core.Formats() {
				out = append(out, replayCase{
					label:  fmt.Sprintf("t_%s_%s_%04d", plan.Name(), format, in.ID),
					plan:   plan,
					format: format,
					cols:   []core.WideColumn{{Name: core.ColumnName, Input: in}},
				})
			}
		}
	}
	return out
}

// tableCases converts fuzz table cases.
func tableCases(tcs []*core.TableCase) []replayCase {
	out := make([]replayCase, len(tcs))
	for i, tc := range tcs {
		out[i] = replayCase{label: tc.Label, plan: tc.Plan, format: tc.Format, cols: tc.Columns}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// outcome is what one case's calls gave, as the harness records them:
// which of the write, the read-back, and on a skew cell the writer-stack
// read and the reader-stack write and read of the sibling table failed,
// and the values the three reads gave.
type outcome struct {
	failed [5]bool
	values [3]string
}

func outcomeOf(c *core.CaseResult) outcome {
	return outcome{
		failed: [5]bool{c.Write.Err != nil, c.Read.Err != nil, c.WriterRead.Err != nil, c.RWWrite.Err != nil, c.RWRead.Err != nil},
		values: [3]string{readValue(c.Read), readValue(c.WriterRead), readValue(c.RWRead)},
	}
}

func readValue(r core.ReadOutcome) string {
	if !r.HasRow {
		return ""
	}
	return r.Value.String()
}

// harnessOutcomes indexes the outcomes of executed cases by table name
// (a fuzz table case's first column stands for its row).
func harnessOutcomes(cases []*core.CaseResult) map[string]outcome {
	out := map[string]outcome{}
	for _, c := range cases {
		if _, seen := out[c.Table]; !seen {
			out[c.Table] = outcomeOf(c)
		}
	}
	return out
}

func createSQL(c replayCase, table string) string {
	defs := make([]string, len(c.cols))
	for i, col := range c.cols {
		defs[i] = fmt.Sprintf("%s %s", col.Name, col.Input.Type)
	}
	return fmt.Sprintf("CREATE TABLE %s (%s) STORED AS %s", table, strings.Join(defs, ", "), c.format)
}

func insertSQL(c replayCase, table string) string {
	lits := make([]string, len(c.cols))
	for i, col := range c.cols {
		lits[i] = col.Input.Literal
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", table, strings.Join(lits, ", "))
}

func selectSQL(table string) string { return "SELECT * FROM " + table }

// schemaRow is the case's DataFrame schema and its single row.
func schemaRow(c replayCase) (serde.Schema, sqlval.Row) {
	var schema serde.Schema
	row := make(sqlval.Row, len(c.cols))
	for i, col := range c.cols {
		schema.Columns = append(schema.Columns, serde.Column{Name: col.Name, Type: col.Input.Type})
		row[i] = col.Input.Value
	}
	return schema, row
}

// isCorpusCase tells a one-column corpus case from a fuzz table case.
func isCorpusCase(c replayCase) bool {
	return len(c.cols) == 1 && c.cols[0].Name == core.ColumnName
}

// write creates and fills the case's table on the writer stack. A
// corpus case goes through the deployment's own write; a fuzz table case
// has several columns, which only core's unexported table writer takes,
// so the replay issues the statements that writer issues.
func write(d *core.Deployment, parent *obs.Span, c replayCase) error {
	if isCorpusCase(c) {
		return d.WriteSpan(parent, c.plan.Write, c.label, c.format, c.cols[0].Input).Err
	}
	switch c.plan.Write {
	case core.SparkSQL:
		if _, err := d.Spark.SQLSpan(parent, createSQL(c, c.label)); err != nil {
			return err
		}
		_, err := d.Spark.SQLSpan(parent, insertSQL(c, c.label))
		return err
	case core.HiveQL:
		if _, err := d.Hive.ExecuteSpan(parent, createSQL(c, c.label)); err != nil {
			return err
		}
		_, err := d.Hive.ExecuteSpan(parent, insertSQL(c, c.label))
		return err
	default:
		schema, row := schemaRow(c)
		df, err := d.Spark.CreateDataFrame(schema, []sqlval.Row{row})
		if err != nil {
			return err
		}
		return df.SaveAsTableSpan(parent, c.label, c.format)
	}
}

// unitReplay is what one replayed deployment unit took and gave.
type unitReplay struct {
	wall      time.Duration // the whole unit, deployment included
	caseTime  time.Duration // Σ per-case wall
	probeTime time.Duration // Σ skew-probe wall (skew cells only)
	outcomes  map[string]outcome
}

// newDeployment stands the unit's deployment up the way core.Run does.
func newDeployment(u deployUnit) (*core.Deployment, error) {
	d := core.NewDeployment()
	if u.pair != nil {
		var err error
		if d, err = core.NewSkewDeployment(*u.pair); err != nil {
			return nil, err
		}
	}
	d.SetConf(u.conf)
	return d, nil
}

// replayUnit runs the unit's cases sequentially on a fresh deployment,
// with core.Run's per-case call sequence: write, then read; on a skew
// cell also the writer-stack read and the reader-stack write and read
// of a sibling table. With a tracer, each call gets a benchmark span
// and the engines' spans hang beneath it.
func replayUnit(u deployUnit, tr *obs.Tracer) (unitReplay, error) {
	out := unitReplay{outcomes: make(map[string]outcome, len(u.cases))}
	start := time.Now()
	d, err := newDeployment(u)
	if err != nil {
		return out, err
	}
	if tr != nil {
		d.SetTracer(tr)
	}
	call := func(root *obs.Span, name string, f func(*obs.Span) error) {
		sp := opSpan(tr, root, name, -1)
		sp.Fail(f(sp)).End()
	}
	for _, c := range u.cases {
		caseStart := time.Now()
		var cr core.CaseResult
		root := opSpan(tr, nil, "case", -1).Set("table", c.label)
		call(root, "write", func(sp *obs.Span) error { cr.Write.Err = write(d, sp, c); return cr.Write.Err })
		if cr.Write.Err == nil {
			call(root, "read", func(sp *obs.Span) error { cr.Read = d.ReadSpan(sp, c.plan.Read, c.label); return cr.Read.Err })
		}
		if d.Pair != nil {
			probeStart := time.Now()
			if cr.Write.Err == nil {
				call(root, "writer_read", func(sp *obs.Span) error {
					cr.WriterRead = d.WriterReadSpan(sp, c.plan.Read, c.label)
					return cr.WriterRead.Err
				})
			}
			rw := c.label + "_rw"
			call(root, "rw_write", func(sp *obs.Span) error {
				cr.RWWrite = d.ReaderWriteSpan(sp, c.plan.Write, rw, c.format, c.cols[0].Input)
				return cr.RWWrite.Err
			})
			if cr.RWWrite.Err == nil {
				call(root, "rw_read", func(sp *obs.Span) error { cr.RWRead = d.ReadSpan(sp, c.plan.Read, rw); return cr.RWRead.Err })
			}
			out.probeTime += time.Since(probeStart)
		}
		root.End()
		out.caseTime += time.Since(caseStart)
		out.outcomes[c.label] = outcomeOf(&cr)
	}
	out.wall = time.Since(start)
	return out, nil
}

// checkReplay records a wrong output when the replay's cases did not
// fail and read back as the harness's did.
func checkReplay(r *result, u deployUnit, rep unitReplay) {
	bad, first := 0, ""
	for _, c := range u.cases {
		got, want := rep.outcomes[c.label], u.want[c.label]
		if got != want {
			if bad++; bad == 1 {
				first = fmt.Sprintf("%s: replay %+v, harness %+v", c.label, got, want)
			}
		}
	}
	if bad > 0 {
		r.problem("data-plane replay differs from the harness on %d of %d cases, first %s", bad, len(u.cases), first)
	}
}

// deployUs is the median time to stand up the unit's deployment.
func deployUs(u deployUnit) (float64, error) {
	var us []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		if _, err := newDeployment(u); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(us), nil
}

// listReplay replays a unit's warehouse traffic, in the order its
// engine spans recorded it, on a fresh file system: each written path
// is written, and each engine read call lists its table's directory —
// the FileSystem.List every table read makes, which scans the whole
// warehouse. It returns the files written, the List calls and their
// total time.
func listReplay(spans []obs.Span) (files, lists int, total time.Duration) {
	fs := hdfssim.New(nil)
	written := map[string]bool{}
	lastRead := int64(-1)
	for _, s := range spans {
		p := ""
		for _, a := range s.Attrs {
			if a.Key == "path" {
				p = a.Value
			}
		}
		switch s.Name {
		case "warehouse/write":
			if !written[p] {
				written[p] = true
				fs.Write(p, []byte{0}, hdfssim.WriteOptions{Overwrite: true})
			}
		case "warehouse/read":
			if s.ParentID == lastRead {
				continue // another file of a table already listed
			}
			lastRead = s.ParentID
			t := time.Now()
			fs.List(path.Dir(p))
			total += time.Since(t)
			lists++
		}
	}
	return len(written), lists, total
}

// statements are the SQL texts a case sends to the engines' parser.
func statements(c replayCase) []string {
	var out []string
	if c.plan.Write != core.DataFrame {
		out = append(out, createSQL(c, c.label), insertSQL(c, c.label))
	}
	if c.plan.Read != core.DataFrame {
		out = append(out, selectSQL(c.label))
	}
	return out
}

// parseReplay parses every statement of the cases in isolation.
func parseReplay(cases []replayCase) (us, allocs float64) {
	var stmts []string
	for _, c := range cases {
		stmts = append(stmts, statements(c)...)
	}
	before := readAllocs()
	t := time.Now()
	for _, s := range stmts {
		sqlparse.Parse(s) // rejected statements still cost a parse
	}
	d := time.Since(t)
	a := readAllocs().sub(before)
	n := float64(len(stmts))
	return ratio(float64(d)/float64(time.Microsecond), n), ratio(float64(a.objects), n)
}

// serdeReplay encodes each case's row in the case's format and decodes
// it back, in isolation, reporting per format the mean encode and
// decode time and the allocations per round trip.
func serdeReplay(cases []replayCase, layers map[string]float64) error {
	for _, name := range core.Formats() {
		format, err := serde.ByName(name)
		if err != nil {
			return err
		}
		var schemas []serde.Schema
		var rows []sqlval.Row
		for _, c := range cases {
			if c.format == name {
				s, r := schemaRow(c)
				schemas = append(schemas, s)
				rows = append(rows, r)
			}
		}
		encoded := make([][]byte, 0, len(rows))
		before := readAllocs()
		t := time.Now()
		for i := range rows {
			// An unsupported type is rejected by the encoder, which is
			// still encoder work; there is nothing to decode then.
			if data, err := format.Encode(schemas[i], nil, []sqlval.Row{rows[i]}); err == nil {
				encoded = append(encoded, data)
			}
		}
		enc := time.Since(t)
		t = time.Now()
		for _, data := range encoded {
			format.Decode(data)
		}
		dec := time.Since(t)
		allocs := readAllocs().sub(before)
		prefix := "serde." + name + "."
		layers[prefix+"encode_us"] = ratio(float64(enc)/float64(time.Microsecond), float64(len(rows)))
		layers[prefix+"decode_us"] = ratio(float64(dec)/float64(time.Microsecond), float64(len(encoded)))
		layers[prefix+"allocs"] = ratio(float64(allocs.objects), float64(len(rows)))
	}
	return nil
}

// engineSpans are the engine entry points whose self time is reported.
var engineSpans = []string{"sparksql", "dataframe/save", "dataframe/scan", "hiveql"}

// dataPlane measures every data-plane layer over the workload's
// deployment units, stores the values in the result's layers, and
// returns the untraced replay's total case time.
func dataPlane(cfg *config, r *result, units []deployUnit) (time.Duration, error) {
	var caseTime, untracedWall, tracedWall, probeTime, listTime time.Duration
	var deploy []float64
	var cases []replayCase
	var files, lists int
	engines := newSpanAgg()
	layers := r.layers
	// Each unit's replays run back to back, so the list share compares
	// times taken moments apart on a host whose speed drifts.
	for i, u := range units {
		rep, err := replayUnit(u, nil)
		if err != nil {
			return 0, err
		}
		checkReplay(r, u, rep)
		untracedWall += rep.wall
		caseTime += rep.caseTime
		probeTime += rep.probeTime
		cases = append(cases, u.cases...)

		tr := cfg.tracer(r.workload, fmt.Sprintf("replay/%d", i))
		if rep, err = replayUnit(u, tr); err != nil {
			return 0, err
		}
		tracedWall += rep.wall
		spans := tr.Snapshot()
		engines.merge(aggregate(spans))
		n, l, d := listReplay(spans)
		files += n
		lists += l
		listTime += d

		us, err := deployUs(u)
		if err != nil {
			return 0, err
		}
		deploy = append(deploy, us)
	}
	nCases := float64(len(cases))
	layers["core.case_us"] = ratio(float64(caseTime)/float64(time.Microsecond), nCases)
	layers["core.deploy_us"] = median(deploy)
	layers["core.tables_per_deploy"] = ratio(nCases, float64(len(units)))
	layers["core.skew_probe_share"] = ratio(float64(probeTime), float64(caseTime))
	layers["sparksim.sql_self_us"] = engines.selfUs("sparksql")
	layers["sparksim.df_save_self_us"] = engines.selfUs("dataframe/save")
	layers["sparksim.df_scan_self_us"] = engines.selfUs("dataframe/scan")
	layers["hivesim.hiveql_self_us"] = engines.selfUs("hiveql")
	metastore, calls, errs := 0, 0, 0
	for name, n := range engines.calls {
		if strings.HasPrefix(name, "metastore/") {
			metastore += n
		}
	}
	for _, name := range engineSpans {
		calls += engines.calls[name]
		errs += engines.errors[name]
	}
	layers["hivesim.metastore_ops_per_case"] = ratio(float64(metastore), nCases)
	layers["engine.error_frac"] = ratio(float64(errs), float64(calls))
	layers["hdfssim.files"] = ratio(float64(files), float64(len(units)))
	layers["hdfssim.list_us"] = ratio(float64(listTime)/float64(time.Microsecond), float64(lists))
	layers["hdfssim.list_share"] = ratio(float64(listTime), float64(caseTime))
	layers["sqlparse.parse_us"], layers["sqlparse.allocs_per_parse"] = parseReplay(cases)
	if err := serdeReplay(cases, layers); err != nil {
		return 0, err
	}
	layers["obs.bench_trace_overhead_frac"] = ratio(float64(tracedWall), float64(untracedWall)) - 1
	return caseTime, nil
}
