package sparksim

import (
	"testing"

	"repro/internal/serde"
	"repro/internal/sqlval"
)

func TestApplyVersionProfile(t *testing.T) {
	e := newEnv()
	if err := e.spark.ApplyVersionProfile(Version23); err != nil {
		t.Fatal(err)
	}
	if e.spark.Version() != Version23 {
		t.Errorf("version = %q", e.spark.Version())
	}
	if e.spark.Conf().Get(ConfStoreAssignmentPolicy) != "legacy" {
		t.Error("2.3 profile should default to legacy store assignment")
	}
	if err := e.spark.ApplyVersionProfile("9.9"); err == nil {
		t.Error("unknown version should error")
	}
}

func TestVersion23SilentlyCoercesWhere32Errors(t *testing.T) {
	// §5.3: the same statement behaves differently across co-deployed
	// versions — Spark 2.3 coerces silently, 3.2 rejects.
	insert := `INSERT INTO t VALUES (3000000000)`

	e32 := newEnv()
	if err := e32.spark.ApplyVersionProfile(Version32); err != nil {
		t.Fatal(err)
	}
	sqlT(t, e32.spark, `CREATE TABLE t (n INT) STORED AS PARQUET`)
	if _, err := e32.spark.SQL(insert); err == nil {
		t.Error("3.2 should reject the overflow")
	}

	e23 := newEnv()
	if err := e23.spark.ApplyVersionProfile(Version23); err != nil {
		t.Fatal(err)
	}
	sqlT(t, e23.spark, `CREATE TABLE t (n INT) STORED AS PARQUET`)
	if _, err := e23.spark.SQL(insert); err != nil {
		t.Errorf("2.3 should coerce silently: %v", err)
	}
}

func TestVersion23MatchesHiveCalendar(t *testing.T) {
	// Spark 2.3's hybrid calendar agrees with Hive on pre-Gregorian
	// dates — the very agreement 3.x broke.
	e := newEnv()
	if err := e.spark.ApplyVersionProfile(Version23); err != nil {
		t.Fatal(err)
	}
	sqlT(t, e.spark, `CREATE TABLE t (d DATE) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (DATE '1500-06-01')`)
	hres := hiveT(t, e.hive, `SELECT * FROM t`)
	if got := sqlval.FormatDate(hres.Rows[0][0].Int()); got != "1500-06-01" {
		t.Errorf("hive read = %s under the 2.3 profile", got)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (id INT, score DOUBLE) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (3, 1.0), (1, 3.0), (2, 2.0)`)
	res := sqlT(t, e.spark, `SELECT id FROM t ORDER BY score DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = sqlT(t, e.spark, `SELECT id FROM t ORDER BY id`)
	if res.Rows[0][0].Int() != 1 || res.Rows[2][0].Int() != 3 {
		t.Errorf("asc rows = %v", res.Rows)
	}
	res = sqlT(t, e.spark, `SELECT * FROM t LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 rows = %v", res.Rows)
	}
	// Hive supports the same projection machinery.
	hres := hiveT(t, e.hive, `SELECT id FROM t ORDER BY id DESC LIMIT 1`)
	if len(hres.Rows) != 1 || hres.Rows[0][0].Int() != 3 {
		t.Errorf("hive rows = %v", hres.Rows)
	}
}

func TestOrderByUnknownColumn(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (id INT) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`SELECT * FROM t ORDER BY nope`); err == nil {
		t.Error("unknown ORDER BY column should fail")
	}
}

func TestSparkInsertOverwrite(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (a INT) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (1), (2)`)
	sqlT(t, e.spark, `INSERT OVERWRITE TABLE t VALUES (9)`)
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 9 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Overwrites are visible cross-engine.
	hres := hiveT(t, e.hive, `SELECT * FROM t`)
	if len(hres.Rows) != 1 || hres.Rows[0][0].Int() != 9 {
		t.Errorf("hive rows = %v", hres.Rows)
	}
}

func TestAggregatesThroughSparkSQL(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (n INT) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (1), (2), (3)`)
	res := sqlT(t, e.spark, `SELECT COUNT(*), SUM(n), AVG(n) FROM t`)
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Int() != 6 || res.Rows[0][2].Float() != 2 {
		t.Errorf("aggregates = %v", res.Rows[0])
	}
	// Both engines agree on the aggregate of the shared table.
	hres := hiveT(t, e.hive, `SELECT COUNT(*), SUM(n) FROM t`)
	if hres.Rows[0][0].Int() != 3 || hres.Rows[0][1].Int() != 6 {
		t.Errorf("hive aggregates = %v", hres.Rows[0])
	}
}

func TestCaseSensitiveResolution(t *testing.T) {
	// With spark.sql.caseSensitive=true, a case-mismatched column no
	// longer resolves against the file and reads back NULL — the knob
	// that turns the silent case-fold into visible data loss.
	e := newEnv()
	// The DataFrame writer records the case-preserved column name in the
	// file; a later re-registration of the table property (e.g. by a
	// Hive-side tool) leaves Spark's catalog lowercase.
	schema := serde.Schema{Columns: []serde.Column{{Name: "MixedCase", Type: sqlval.Int}}}
	df, err := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.IntVal(sqlval.Int, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.SaveAsTable("t", "parquet"); err != nil {
		t.Fatal(err)
	}
	table, _ := e.spark.Metastore().GetTable("t")
	e.spark.Metastore().SetProp(table, PropSparkSchema, "mixedcase INT")
	e.spark.Conf().Set(ConfCaseSensitive, "true")
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("case-sensitive resolution should miss: %v", res.Rows[0])
	}
	e.spark.Conf().Set(ConfCaseSensitive, "false")
	res = sqlT(t, e.spark, `SELECT * FROM t`)
	if res.Rows[0][0].Int() != 7 {
		t.Errorf("case-insensitive resolution should match: %v", res.Rows[0])
	}
}

func TestDataFrameAppendFormatMismatch(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (a INT) STORED AS ORC`)
	schema := serde.Schema{Columns: []serde.Column{{Name: "a", Type: sqlval.Int}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.IntVal(sqlval.Int, 1)}})
	if err := df.SaveAsTable("t", "parquet"); err == nil {
		t.Error("format mismatch on append should fail")
	}
}

func TestDataFrameArityMismatch(t *testing.T) {
	e := newEnv()
	schema := serde.Schema{Columns: []serde.Column{{Name: "a", Type: sqlval.Int}}}
	if _, err := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.IntVal(sqlval.Int, 1), sqlval.IntVal(sqlval.Int, 2)}}); err == nil {
		t.Error("row wider than schema should fail")
	}
}

func TestSchemaDDLParseErrors(t *testing.T) {
	for _, bad := range []string{"", "noType", "a NOTATYPE", "a INT,,b INT"} {
		if _, err := parseSchemaDDL(bad); err == nil {
			t.Errorf("parseSchemaDDL(%q): expected error", bad)
		}
	}
}

func TestGroupByAgreesAcrossEngines(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE sales (region STRING, amount INT) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO sales VALUES ('east', 10), ('west', 5), ('east', 20)`)
	sres := sqlT(t, e.spark, `SELECT region, SUM(amount) FROM sales GROUP BY region`)
	hres := hiveT(t, e.hive, `SELECT region, SUM(amount) FROM sales GROUP BY region`)
	if len(sres.Rows) != 2 || len(hres.Rows) != 2 {
		t.Fatalf("groups = %v / %v", sres.Rows, hres.Rows)
	}
	for i := range sres.Rows {
		if sres.Rows[i][0].Str() != hres.Rows[i][0].Str() || sres.Rows[i][1].Int() != hres.Rows[i][1].Int() {
			t.Errorf("row %d: spark %v vs hive %v", i, sres.Rows[i], hres.Rows[i])
		}
	}
}
