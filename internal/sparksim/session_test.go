package sparksim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hdfssim"
	"repro/internal/hivesim"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

// env is a co-deployment: one warehouse, one metastore, one Spark
// session and one Hive engine.
type env struct {
	spark *Session
	hive  *hivesim.Hive
}

func newEnv() *env {
	fs := hdfssim.New(nil)
	ms := hivesim.NewMetastore()
	return &env{spark: NewSession(fs, ms), hive: hivesim.New(fs, ms)}
}

func sqlT(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := s.SQL(q)
	if err != nil {
		t.Fatalf("SQL(%q): %v", q, err)
	}
	return res
}

func hiveT(t *testing.T, h *hivesim.Hive, q string) *hivesim.Result {
	t.Helper()
	res, err := h.Execute(q)
	if err != nil {
		t.Fatalf("hive(%q): %v", q, err)
	}
	return res
}

func TestSparkSQLRoundTrip(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (id INT, name STRING) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if len(res.Rows) != 2 || res.Rows[1][1].Str() != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("warnings = %v", res.Warnings)
	}
}

func TestSchemaDDLRoundTrip(t *testing.T) {
	schema := serde.Schema{Columns: []serde.Column{
		{Name: "Id", Type: sqlval.Int},
		{Name: "Attrs", Type: sqlval.MapType(sqlval.String, sqlval.DecimalType(5, 2))},
		{Name: "S", Type: sqlval.StructType(sqlval.Field{Name: "x", Type: sqlval.Int})},
	}}
	ddl := encodeSchemaDDL(schema)
	if want := "Id INT, Attrs MAP<STRING,DECIMAL(5,2)>, S STRUCT<x:INT>"; ddl != want {
		t.Errorf("encodeSchemaDDL = %q, want %q", ddl, want)
	}
	parsed, err := parseSchemaDDL(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(schema) {
		t.Errorf("round trip = %v, want %v", parsed, schema)
	}
	// Wider than encodeSchemaDDL's on-stack type buffer.
	var wide serde.Schema
	for i := 0; i < 11; i++ {
		wide.Columns = append(wide.Columns, serde.Column{Name: fmt.Sprintf("c%d", i), Type: sqlval.VarcharType(i + 1)})
	}
	if parsed, err := parseSchemaDDL(encodeSchemaDDL(wide)); err != nil || !parsed.Equal(wide) {
		t.Errorf("wide round trip = %v, %v, want %v", parsed, err, wide)
	}
}

// --- Discrepancy 1: SPARK-39075 ---------------------------------------

func TestAvroDataFrameCannotReadWhatItWrote(t *testing.T) {
	e := newEnv()
	schema := serde.Schema{Columns: []serde.Column{{Name: "B", Type: sqlval.TinyInt}}}
	df, err := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.IntVal(sqlval.TinyInt, 5)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.SaveAsTable("t", "avro"); err != nil {
		t.Fatal(err)
	}
	_, err = e.spark.Table("t")
	var ise *IncompatibleSchemaError
	if !errors.As(err, &ise) {
		t.Fatalf("DataFrame read err = %v, want IncompatibleSchemaException", err)
	}
	// SparkSQL survives via the Hive-schema fallback, returning INT.
	res, err := e.spark.SQL(`SELECT * FROM t`)
	if err != nil {
		t.Fatalf("SparkSQL read: %v", err)
	}
	if res.Rows[0][0].Kind() != sqlval.KindInt || res.Rows[0][0].Int() != 5 {
		t.Errorf("SparkSQL read = %v", res.Rows[0][0])
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[len(res.Warnings)-1], "not case preserving") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	// The same data through ORC round-trips exactly.
	df2, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.IntVal(sqlval.TinyInt, 5)}})
	if err := df2.SaveAsTable("t2", "orc"); err != nil {
		t.Fatal(err)
	}
	res2, err := e.spark.Table("t2")
	if err != nil || res2.Rows[0][0].Kind() != sqlval.KindTinyInt {
		t.Errorf("orc read = %v, %v", res2, err)
	}
}

// --- Discrepancy 2: SPARK-39158 ---------------------------------------

func TestLegacyDecimalUnreadableByHive(t *testing.T) {
	e := newEnv()
	d, _ := sqlval.ParseDecimal("12.34")
	schema := serde.Schema{Columns: []serde.Column{{Name: "amt", Type: sqlval.DecimalType(10, 2)}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.DecimalVal(sqlval.DecimalType(10, d.Scale), d)}})
	if err := df.SaveAsTable("t", "parquet"); err != nil {
		t.Fatal(err)
	}
	// Spark reads its own encoding back on both interfaces.
	res, err := e.spark.Table("t")
	if err != nil || res.Rows[0][0].Dec().String() != "12.34" {
		t.Fatalf("DataFrame read = %v, %v", res, err)
	}
	if res, err := e.spark.SQL(`SELECT * FROM t`); err != nil || res.Rows[0][0].Dec().String() != "12.34" {
		t.Fatalf("SparkSQL read = %v, %v", res, err)
	}
	// Hive throws a SerDeException.
	_, err = e.hive.Execute(`SELECT * FROM t`)
	var sde *hivesim.SerDeError
	if !errors.As(err, &sde) {
		t.Fatalf("hive read err = %v, want SerDeException", err)
	}
	// With the legacy writer disabled, Hive reads the value.
	e.spark.Conf().Set(ConfWriteLegacyDecimal, "false")
	df2, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.DecimalVal(sqlval.DecimalType(10, d.Scale), d)}})
	if err := df2.SaveAsTable("t2", "parquet"); err != nil {
		t.Fatal(err)
	}
	res2, err := e.hive.Execute(`SELECT * FROM t2`)
	if err != nil || res2.Rows[0][0].Dec().String() != "12.34" {
		t.Errorf("hive read fixed = %v, %v", res2, err)
	}
}

// --- Discrepancy 3: HIVE-26533 / SPARK-40409 ---------------------------

func TestSparkSQLAvroWidensAndLosesCase(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (SmallVal SMALLINT) STORED AS AVRO`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (7)`)
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if res.Rows[0][0].Kind() != sqlval.KindInt {
		t.Errorf("type = %v, want INT", res.Rows[0][0].Type())
	}
	if res.Columns[0].Name != "smallval" {
		t.Errorf("column name = %q, want lowercased", res.Columns[0].Name)
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0], "not case preserving") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	// Parquet preserves both the type and the case.
	sqlT(t, e.spark, `CREATE TABLE t2 (SmallVal SMALLINT) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t2 VALUES (7)`)
	res2 := sqlT(t, e.spark, `SELECT * FROM t2`)
	if res2.Rows[0][0].Kind() != sqlval.KindSmallInt || res2.Columns[0].Name != "SmallVal" {
		t.Errorf("parquet = %v / %v", res2.Columns, res2.Rows)
	}
}

// --- Discrepancy 5: SPARK-40439 ----------------------------------------

func TestDecimalExcessPrecisionErrorVsNull(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (d DECIMAL(5,2)) STORED AS PARQUET`)
	_, err := e.spark.SQL(`INSERT INTO t VALUES (1.23456)`)
	if err == nil || !strings.Contains(err.Error(), "CAST_OVERFLOW") {
		t.Fatalf("SparkSQL insert err = %v", err)
	}
	// DataFrame silently writes NULL.
	d, _ := sqlval.ParseDecimal("1.23456")
	schema := serde.Schema{Columns: []serde.Column{{Name: "d", Type: sqlval.DecimalType(5, 2)}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.DecimalVal(sqlval.DecimalType(10, d.Scale), d)}})
	if err := df.SaveAsTable("t2", "parquet"); err != nil {
		t.Fatal(err)
	}
	res, err := e.spark.Table("t2")
	if err != nil || !res.Rows[0][0].IsNull() {
		t.Errorf("DataFrame read = %v, %v", res, err)
	}
	// storeAssignmentPolicy=legacy unifies the behavior.
	e.spark.Conf().Set(ConfStoreAssignmentPolicy, "legacy")
	if _, err := e.spark.SQL(`INSERT INTO t VALUES (1.23456)`); err != nil {
		t.Errorf("legacy insert err = %v", err)
	}
	res2 := sqlT(t, e.spark, `SELECT * FROM t`)
	if !res2.Rows[0][0].IsNull() {
		t.Errorf("legacy insert row = %v", res2.Rows[0])
	}
}

// --- Discrepancy 6/7: timestamps and dates across engines --------------

func TestParquetTimestampShiftsForHive(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (ts TIMESTAMP) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (TIMESTAMP '2021-06-15 12:00:00')`)
	// Spark round-trips exactly.
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if got := sqlval.FormatTimestamp(res.Rows[0][0].Int()); got != "2021-06-15 12:00:00" {
		t.Errorf("spark read = %s", got)
	}
	// Hive ignores the writer zone: shifted by 8 hours (LA offset).
	hres := hiveT(t, e.hive, `SELECT * FROM t`)
	if got := sqlval.FormatTimestamp(hres.Rows[0][0].Int()); got != "2021-06-15 20:00:00" {
		t.Errorf("hive read = %s", got)
	}
	// Setting the session zone to UTC resolves the discrepancy.
	e.spark.Conf().Set(ConfSessionTimeZone, "UTC")
	sqlT(t, e.spark, `CREATE TABLE t2 (ts TIMESTAMP) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t2 VALUES (TIMESTAMP '2021-06-15 12:00:00')`)
	hres2 := hiveT(t, e.hive, `SELECT * FROM t2`)
	if got := sqlval.FormatTimestamp(hres2.Rows[0][0].Int()); got != "2021-06-15 12:00:00" {
		t.Errorf("hive read with UTC = %s", got)
	}
}

func TestPreGregorianDateShiftsAcrossEngines(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (d DATE) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (DATE '1500-06-01')`)
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if got := sqlval.FormatDate(res.Rows[0][0].Int()); got != "1500-06-01" {
		t.Errorf("spark read = %s", got)
	}
	hres := hiveT(t, e.hive, `SELECT * FROM t`)
	if got := sqlval.FormatDate(hres.Rows[0][0].Int()); got == "1500-06-01" {
		t.Error("hive read should shift a pre-Gregorian date")
	}
	// Legacy rebase aligns Spark with Hive.
	e.spark.Conf().Set(ConfDatetimeRebaseLegacy, "true")
	sqlT(t, e.spark, `CREATE TABLE t2 (d DATE) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t2 VALUES (DATE '1500-06-01')`)
	hres2 := hiveT(t, e.hive, `SELECT * FROM t2`)
	if got := sqlval.FormatDate(hres2.Rows[0][0].Int()); got != "1500-06-01" {
		t.Errorf("hive read with rebase = %s", got)
	}
}

// --- Discrepancy 8: SPARK-40616 (CHAR padding) --------------------------

func TestCharPaddingAsymmetry(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (c CHAR(4)) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES ('ab')`)
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if res.Rows[0][0].Str() != "ab" {
		t.Errorf("spark char = %q", res.Rows[0][0].Str())
	}
	hres := hiveT(t, e.hive, `SELECT * FROM t`)
	if hres.Rows[0][0].Str() != "ab  " {
		t.Errorf("hive char = %q", hres.Rows[0][0].Str())
	}
	e.spark.Conf().Set(ConfReadSideCharPadding, "true")
	res2 := sqlT(t, e.spark, `SELECT * FROM t`)
	if res2.Rows[0][0].Str() != "ab  " {
		t.Errorf("padded spark char = %q", res2.Rows[0][0].Str())
	}
}

// --- Discrepancies 9-12: inconsistent insert error behaviour ------------

func TestInvalidInputErrorVsSilentNull(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE f (x FLOAT) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`INSERT INTO f VALUES ('NaN')`); err == nil {
		t.Error("SparkSQL should reject 'NaN'")
	}
	schema := serde.Schema{Columns: []serde.Column{{Name: "x", Type: sqlval.Float}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.StringVal("NaN")}})
	if err := df.SaveAsTable("f", "parquet"); err != nil {
		t.Fatal(err)
	}
	res, err := e.spark.Table("f")
	if err != nil || !res.Rows[0][0].IsNaN() {
		t.Errorf("DataFrame NaN = %v, %v", res, err)
	}
	// ansi.enabled=false unifies.
	e.spark.Conf().Set(ConfAnsiEnabled, "false")
	if _, err := e.spark.SQL(`INSERT INTO f VALUES ('Infinity')`); err != nil {
		t.Errorf("legacy insert err = %v", err)
	}
}

func TestIntegerOverflowErrorVsWrap(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (n INT) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`INSERT INTO t VALUES (3000000000)`); err == nil {
		t.Error("SparkSQL should reject INT overflow")
	}
	e.spark.Conf().Set(ConfStoreAssignmentPolicy, "legacy")
	if _, err := e.spark.SQL(`INSERT INTO t VALUES (3000000000)`); err != nil {
		t.Errorf("legacy overflow err = %v", err)
	}
}

func TestInvalidDateErrorVsNull(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (d DATE) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`INSERT INTO t VALUES ('2021-02-30')`); err == nil {
		t.Error("SparkSQL should reject an invalid date")
	}
	schema := serde.Schema{Columns: []serde.Column{{Name: "d", Type: sqlval.Date}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.StringVal("2021-02-30")}})
	if err := df.SaveAsTable("t", "parquet"); err != nil {
		t.Fatal(err)
	}
	res, err := e.spark.Table("t")
	if err != nil || !res.Rows[0][0].IsNull() {
		t.Errorf("DataFrame invalid date = %v, %v", res, err)
	}
}

// --- Discrepancy 13: charVarcharAsString --------------------------------

func TestVarcharOverflowErrorVsTruncate(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (v VARCHAR(4)) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`INSERT INTO t VALUES ('abcdef')`); err == nil {
		t.Error("SparkSQL should reject VARCHAR overflow")
	}
	schema := serde.Schema{Columns: []serde.Column{{Name: "v", Type: sqlval.VarcharType(4)}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.StringVal("abcdef")}})
	if err := df.SaveAsTable("t", "parquet"); err != nil {
		t.Fatal(err)
	}
	res, err := e.spark.Table("t")
	if err != nil || res.Rows[0][0].Str() != "abcd" {
		t.Errorf("DataFrame truncate = %v, %v", res, err)
	}
	// charVarcharAsString removes length semantics entirely.
	e.spark.Conf().Set(ConfCharVarcharAsString, "true")
	sqlT(t, e.spark, `CREATE TABLE t2 (v VARCHAR(4)) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t2 VALUES ('abcdef')`)
	res2 := sqlT(t, e.spark, `SELECT * FROM t2`)
	if res2.Rows[0][0].Str() != "abcdef" {
		t.Errorf("as-string read = %q", res2.Rows[0][0].Str())
	}
}

// --- Discrepancy 15: SPARK-40630 (silent invalid boolean) ---------------

func TestInvalidBooleanSilentlyNullOnDataFrame(t *testing.T) {
	e := newEnv()
	schema := serde.Schema{Columns: []serde.Column{{Name: "b", Type: sqlval.Boolean}}}
	df, _ := e.spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.StringVal("yes")}})
	if err := df.SaveAsTable("t", "parquet"); err != nil {
		t.Fatal(err)
	}
	res, err := e.spark.Table("t")
	if err != nil || !res.Rows[0][0].IsNull() {
		t.Errorf("row = %v, %v", res, err)
	}
	// SparkSQL rejects the same value with feedback.
	sqlT(t, e.spark, `CREATE TABLE t2 (b BOOLEAN) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`INSERT INTO t2 VALUES ('yes')`); err == nil {
		t.Error("SparkSQL should reject 'yes'")
	}
}

// --- Cross-engine plumbing ----------------------------------------------

func TestHiveWrittenORCReadableBySpark(t *testing.T) {
	e := newEnv()
	hiveT(t, e.hive, `CREATE TABLE t (id INT, name STRING) STORED AS ORC`)
	hiveT(t, e.hive, `INSERT INTO t VALUES (1, 'x')`)
	res := sqlT(t, e.spark, `SELECT * FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
	dres, err := e.spark.Table("t")
	if err != nil || dres.Rows[0][0].Int() != 1 {
		t.Errorf("df rows = %v, %v", dres, err)
	}
}

func TestSparkWrittenParquetReadableByHive(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE t (id INT, name STRING) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO t VALUES (1, 'x')`)
	res := hiveT(t, e.hive, `SELECT * FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestConfUnknownKeysTolerated(t *testing.T) {
	c := NewConf()
	c.Set("spark.sql.nonexistent.flag", "whatever")
	if c.Get("spark.sql.nonexistent.flag") != "whatever" {
		t.Error("unknown keys should be stored")
	}
	if c.Bool("spark.sql.nonexistent.flag") {
		t.Error("junk bool should be false")
	}
	if c.TimeZoneOffsetSeconds() != -8*3600 {
		t.Errorf("default tz offset = %d", c.TimeZoneOffsetSeconds())
	}
	clone := c.Clone()
	clone.Set(ConfAnsiEnabled, "false")
	if !c.Bool(ConfAnsiEnabled) {
		t.Error("clone should be independent")
	}
}
