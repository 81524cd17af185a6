package sparksim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/csi"
	"repro/internal/hivesim"
	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
)

// DefaultSQLFormat is the format for SparkSQL CREATE TABLE without a
// STORED AS / USING clause.
const DefaultSQLFormat = "parquet"

// SQL executes one SparkSQL statement.
func (s *Session) SQL(query string) (*Result, error) {
	return s.SQLSpan(nil, query)
}

// SQLSpan executes one SparkSQL statement under an explicit parent
// span. The statement gets a Spark data-plane span with children for
// every cross-system boundary it crosses (metastore calls, SerDe
// encode/decode, warehouse file I/O). With no tracer attached this is
// exactly SQL.
func (s *Session) SQLSpan(parent *obs.Span, query string) (*Result, error) {
	sp := s.tracer.Span(parent, csi.Spark, csi.DataPlane, "sparksql")
	res, err := s.sqlDispatch(sp, query)
	sp.Fail(err).End()
	return res, err
}

func (s *Session) sqlDispatch(sp *obs.Span, query string) (*Result, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sqlparse.CreateTable:
		return s.sqlCreate(sp, st)
	case *sqlparse.DropTable:
		err := s.ms.DropTable(st.Table, st.IfExists)
		sp.Child(csi.Hive, csi.ManagementPlane, "metastore/drop-table").
			Set("table", st.Table).Fail(err).End()
		return &Result{}, err
	case *sqlparse.Insert:
		return s.sqlInsert(sp, st)
	case *sqlparse.Select:
		return s.sqlSelect(sp, st)
	default:
		return nil, fmt.Errorf("spark: unsupported statement %T", stmt)
	}
}

func (s *Session) sqlCreate(sp *obs.Span, st *sqlparse.CreateTable) (*Result, error) {
	format := st.Format
	if format == "" {
		format = DefaultSQLFormat
	}
	cols := make([]serde.Column, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = serde.Column{Name: c.Name, Type: c.Type}
	}
	partCols := make([]serde.Column, len(st.PartitionedBy))
	for i, c := range st.PartitionedBy {
		partCols[i] = serde.Column{Name: c.Name, Type: c.Type}
	}
	_, err := s.createTable(sp, st.Table, cols, partCols, format, false)
	if err != nil && st.IfNotExists && errors.Is(err, hivesim.ErrTableExists) {
		return &Result{}, nil
	}
	return &Result{}, err
}

func (s *Session) evalMode() sqlval.CastMode {
	if s.conf.Bool(ConfAnsiEnabled) {
		return sqlval.CastANSI
	}
	return sqlval.CastLegacy
}

func (s *Session) sqlInsert(sp *obs.Span, st *sqlparse.Insert) (*Result, error) {
	table, err := s.ms.GetTable(st.Table)
	sp.Child(csi.Hive, csi.DataPlane, "metastore/get-table").
		Set("table", st.Table).Fail(err).End()
	if err != nil {
		return nil, err
	}
	schema := table.Schema()
	allCols := table.AllColumns()
	rows := make([]sqlval.Row, 0, len(st.Rows))
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(allCols) {
			return nil, fmt.Errorf("spark: INSERT has %d values, table %s has %d columns",
				len(exprRow), table.Name, len(allCols))
		}
		row := make(sqlval.Row, len(exprRow))
		for i, e := range exprRow {
			v, err := sqlparse.Eval(e, s.evalMode())
			if err != nil {
				return nil, err
			}
			coerced, err := s.sqlInsertCast(v, allCols[i].Type)
			if err != nil {
				return nil, fmt.Errorf("spark: writing column %q: %w", allCols[i].Name, err)
			}
			row[i] = coerced
		}
		rows = append(rows, row)
	}
	if st.Overwrite {
		if err := s.truncate(table); err != nil {
			return nil, err
		}
	}
	if err := s.writeRows(sp, table, schema, rows, false); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// sqlInsertCast applies SparkSQL's store-assignment coercion: overflow
// strictness is governed by spark.sql.storeAssignmentPolicy, invalid
// string input by spark.sql.ansi.enabled, and CHAR/VARCHAR length by
// spark.sql.legacy.charVarcharAsString (which removes the check
// entirely at table-creation time).
func (s *Session) sqlInsertCast(v sqlval.Value, to sqlval.Type) (sqlval.Value, error) {
	out, err := sqlval.Cast(v, to, sqlval.CastANSI)
	if err == nil {
		return out, nil
	}
	var ce *sqlval.CastError
	strict := true
	if errors.As(err, &ce) {
		switch ce.Code {
		case "CAST_OVERFLOW":
			strict = strings.EqualFold(s.conf.Get(ConfStoreAssignmentPolicy), "ansi")
		case "CAST_INVALID_INPUT":
			strict = s.conf.Bool(ConfAnsiEnabled)
		}
	}
	if strict {
		return sqlval.Value{}, err
	}
	out, _ = sqlval.Cast(v, to, sqlval.CastLegacy)
	return out, nil
}

func (s *Session) sqlSelect(sp *obs.Span, st *sqlparse.Select) (*Result, error) {
	table, err := s.ms.GetTable(st.Table)
	sp.Child(csi.Hive, csi.DataPlane, "metastore/get-table").
		Set("table", st.Table).Fail(err).End()
	if err != nil {
		return nil, err
	}
	schema, fromProps, err := s.resolveSchema(table)
	if err != nil {
		return nil, err
	}
	var warnings []string
	if !fromProps {
		warnings = append(warnings, fallbackWarning(table.Name))
	}
	rows, err := s.readTable(sp, table, schema, true)
	if err != nil && fromProps {
		// SparkSQL's Hive-table read path survives strict-reader failures
		// by falling back to the Hive metastore schema, which is not case
		// preserving (HIVE-26533 / SPARK-40409).
		warnings = append(warnings, fallbackWarning(table.Name)+fmt.Sprintf(" (native read failed: %v)", err))
		schema = table.Schema()
		rows, err = s.readTable(sp, table, schema, false)
	}
	if err != nil {
		return nil, err
	}
	projCols := append(append([]serde.Column(nil), schema.Columns...), table.PartitionCols...)
	res, err := projectSpark(projCols, rows, st, s.evalMode())
	if err != nil {
		return nil, err
	}
	res.Warnings = append(res.Warnings, warnings...)
	return res, nil
}

func fallbackWarning(table string) string {
	return "WARN HiveExternalCatalog: reading table " + table + " using the Hive schema, which is not case preserving"
}

// projectSpark adapts the shared projection helper to Spark's result
// type.
func projectSpark(columns []serde.Column, rows []sqlval.Row, st *sqlparse.Select, mode sqlval.CastMode) (*Result, error) {
	hr, err := hivesim.Project(columns, rows, st, mode)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: hr.Columns, Rows: hr.Rows, Warnings: hr.Warnings}, nil
}
