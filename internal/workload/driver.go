package workload

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sqlval"
)

// Engine selects the driver's write/read path.
type Engine int

// The drivers.
const (
	// ViaDataFrame loads through Spark's DataFrame writer and scans
	// through the DataFrame reader.
	ViaDataFrame Engine = iota
	// ViaHive loads and scans through HiveQL. The SQL path builds
	// statements, so it exercises the parser as real clients do; it is
	// driven batch-by-batch with multi-row VALUES.
	ViaHive
)

// RunResult summarizes a driver run.
type RunResult struct {
	Tables  int
	RowsIn  int
	RowsOut int
	// ScanAgree reports whether both engines scanned every table with
	// the same row counts and no errors. At workload scale a single
	// data-plane discrepancy (e.g. the legacy decimal encoding of
	// SPARK-39158) flips this for the whole deployment.
	ScanAgree bool
	// HiveScanErrors counts tables Hive could not scan at all.
	HiveScanErrors int
}

// Run loads the workload into a fresh co-deployment through the given
// engine under the given Spark configuration, then scans every table
// back through BOTH engines and compares row counts — a bulk-data smoke
// of the cross-system data plane.
//
//crossvet:unused-export BenchmarkWorkloadScale (root bench_test.go) drives the bulk-data path through it
func Run(tables []Table, via Engine, format string, sparkConf map[string]string) (RunResult, error) {
	d := core.NewDeployment()
	for k, v := range sparkConf {
		d.Spark.Conf().Set(k, v)
	}
	res := RunResult{Tables: len(tables), ScanAgree: true}
	for _, t := range tables {
		switch via {
		case ViaDataFrame:
			for _, batch := range t.Batches {
				df, err := d.Spark.CreateDataFrame(t.Schema, batch)
				if err != nil {
					return res, err
				}
				if err := df.SaveAsTable(t.Name, format); err != nil {
					return res, err
				}
				res.RowsIn += len(batch)
			}
		case ViaHive:
			var defs []string
			for _, c := range t.Schema.Columns {
				defs = append(defs, fmt.Sprintf("%s %s", c.Name, c.Type))
			}
			create := fmt.Sprintf("CREATE TABLE %s (%s) STORED AS %s", t.Name, strings.Join(defs, ", "), format)
			if _, err := d.Hive.Execute(create); err != nil {
				return res, err
			}
			for _, batch := range t.Batches {
				if _, err := d.Hive.Execute(insertStatement(t.Name, batch)); err != nil {
					return res, err
				}
				res.RowsIn += len(batch)
			}
		default:
			return res, fmt.Errorf("workload: unknown engine %d", via)
		}

		sres, err := d.Spark.SQL(fmt.Sprintf("SELECT * FROM %s", t.Name))
		if err != nil {
			return res, err
		}
		res.RowsOut += len(sres.Rows)
		// Cross-engine comparison: full scan row count and COUNT(*) must
		// agree across the boundary.
		hres, err := d.Hive.Execute(fmt.Sprintf("SELECT * FROM %s", t.Name))
		if err != nil {
			// A cross-system read failure (e.g. SerDeException on Spark's
			// legacy decimals) is a finding, not a driver error.
			res.HiveScanErrors++
			res.ScanAgree = false
			continue
		}
		if len(sres.Rows) != len(hres.Rows) {
			res.ScanAgree = false
		}
		hcount, err := d.Hive.Execute(fmt.Sprintf("SELECT COUNT(*) FROM %s", t.Name))
		if err != nil || len(hcount.Rows) != 1 || hcount.Rows[0][0].Int() != int64(len(hres.Rows)) {
			res.ScanAgree = false
		}
	}
	return res, nil
}

// insertStatement renders a multi-row INSERT for the batch.
func insertStatement(table string, batch []sqlval.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i, row := range batch {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(literal(v))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// literal renders a value as a SQL literal the parser accepts.
func literal(v sqlval.Value) string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.Kind() {
	case sqlval.KindString, sqlval.KindChar, sqlval.KindVarchar:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case sqlval.KindTimestamp:
		return fmt.Sprintf("TIMESTAMP '%s'", sqlval.FormatTimestamp(v.Int()))
	case sqlval.KindDate:
		return fmt.Sprintf("DATE '%s'", sqlval.FormatDate(v.Int()))
	case sqlval.KindBoolean:
		if v.Bool() {
			return "true"
		}
		return "false"
	default:
		return v.String()
	}
}
