package sparksim

import (
	"strings"
	"testing"

	"repro/internal/hivesim"
	"repro/internal/sqlval"
)

func TestPartitionedTableRoundTripSimpleValues(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE logs (msg STRING) PARTITIONED BY (day STRING) STORED AS PARQUET`)
	sqlT(t, e.spark, `INSERT INTO logs VALUES ('a', '2021-06-15'), ('b', '2021-06-16')`)
	res := sqlT(t, e.spark, `SELECT * FROM logs ORDER BY day`)
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "2021-06-15" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 2 || res.Columns[1].Name != "day" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Hive reads the same partitions.
	hres := hiveT(t, e.hive, `SELECT * FROM logs WHERE day = '2021-06-16'`)
	if len(hres.Rows) != 1 || hres.Rows[0][0].Str() != "b" {
		t.Errorf("hive rows = %v", hres.Rows)
	}
	// Partition directories exist on the warehouse.
	table, _ := e.spark.Metastore().GetTable("logs")
	paths := e.spark.fs.List(table.Location)
	if len(paths) != 2 || !strings.Contains(paths[0], "day=2021-06-15") {
		t.Errorf("paths = %v", paths)
	}
}

func TestPartitionedTypedPartitionColumn(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE m (v DOUBLE) PARTITIONED BY (bucket INT) STORED AS ORC`)
	sqlT(t, e.spark, `INSERT INTO m VALUES (1.5, 7)`)
	res := sqlT(t, e.spark, `SELECT * FROM m`)
	if res.Rows[0][1].Kind() != sqlval.KindInt || res.Rows[0][1].Int() != 7 {
		t.Errorf("partition value = %v", res.Rows[0][1])
	}
	hres := hiveT(t, e.hive, `SELECT * FROM m`)
	if hres.Rows[0][1].Int() != 7 {
		t.Errorf("hive partition value = %v", hres.Rows[0][1])
	}
}

func TestPartitionEscapingDivergesAcrossEngines(t *testing.T) {
	// Candidate NEW discrepancy (the "developing a more general tool"
	// direction of §8): Hive percent-encodes every special byte in a
	// partition value, Spark only the path-critical ones. A value with a
	// space written by Hive comes back mangled through Spark's reader.
	e := newEnv()
	hiveT(t, e.hive, `CREATE TABLE ev (n INT) PARTITIONED BY (tag STRING) STORED AS ORC`)
	hiveT(t, e.hive, `INSERT INTO ev VALUES (1, 'big sale')`)

	hres := hiveT(t, e.hive, `SELECT * FROM ev`)
	if hres.Rows[0][1].Str() != "big sale" {
		t.Fatalf("hive round trip = %q", hres.Rows[0][1].Str())
	}
	sres := sqlT(t, e.spark, `SELECT * FROM ev`)
	if sres.Rows[0][1].Str() != "big%20sale" {
		t.Errorf("spark read of hive partition = %q, expected the raw escaped segment", sres.Rows[0][1].Str())
	}

	// The reverse direction: Spark writes the space raw; Hive decodes
	// nothing (no %XX present) and the engines agree by accident.
	sqlT(t, e.spark, `CREATE TABLE ev2 (n INT) PARTITIONED BY (tag STRING) STORED AS ORC`)
	sqlT(t, e.spark, `INSERT INTO ev2 VALUES (1, 'big sale')`)
	if got := sqlT(t, e.spark, `SELECT * FROM ev2`).Rows[0][1].Str(); got != "big sale" {
		t.Errorf("spark round trip = %q", got)
	}
	if got := hiveT(t, e.hive, `SELECT * FROM ev2`).Rows[0][1].Str(); got != "big sale" {
		t.Errorf("hive read of spark partition = %q", got)
	}
}

func TestPartitionNullValueUsesDefaultPartition(t *testing.T) {
	e := newEnv()
	hiveT(t, e.hive, `CREATE TABLE ev (n INT) PARTITIONED BY (tag STRING) STORED AS ORC`)
	hiveT(t, e.hive, `INSERT INTO ev VALUES (1, NULL)`)
	table, _ := e.hive.Metastore().GetTable("ev")
	paths := e.hive.FileSystem().List(table.Location)
	if len(paths) != 1 || !strings.Contains(paths[0], "__HIVE_DEFAULT_PARTITION__") {
		t.Fatalf("paths = %v", paths)
	}
	hres := hiveT(t, e.hive, `SELECT * FROM ev`)
	if !hres.Rows[0][1].IsNull() {
		t.Errorf("null partition = %v", hres.Rows[0][1])
	}
}

func TestPartitionEscapeHelpers(t *testing.T) {
	cases := map[string]string{
		"plain":    "plain",
		"a b":      "a%20b",
		"a/b":      "a%2Fb",
		"a=b":      "a%3Db",
		"100%":     "100%25",
		"ümlaut":   "%C3%BCmlaut",
		"under_ok": "under_ok",
	}
	for in, want := range cases {
		got := hivesim.EscapePartitionValue(in)
		if got != want {
			t.Errorf("hive escape(%q) = %q, want %q", in, got, want)
		}
		if back := hivesim.UnescapePartitionValue(got); back != in {
			t.Errorf("hive unescape(%q) = %q, want %q", got, back, in)
		}
	}
	// Malformed sequences stay literal.
	if got := hivesim.UnescapePartitionValue("50%x1"); got != "50%x1" {
		t.Errorf("malformed = %q", got)
	}
	// Spark escapes only the path-critical characters.
	if got := sparkEscapePartitionValue("a b/c=d%e"); got != "a b%2Fc%3Dd%25e" {
		t.Errorf("spark escape = %q", got)
	}
	if got := sparkUnescapePartitionValue("a b%2Fc%3Dd%25e"); got != "a b/c=d%e" {
		t.Errorf("spark unescape = %q", got)
	}
	if got := sparkUnescapePartitionValue("a%20b"); got != "a%20b" {
		t.Errorf("spark should not decode %%20: %q", got)
	}
}

func TestPartitionedInsertArity(t *testing.T) {
	e := newEnv()
	sqlT(t, e.spark, `CREATE TABLE p (a INT) PARTITIONED BY (b STRING) STORED AS PARQUET`)
	if _, err := e.spark.SQL(`INSERT INTO p VALUES (1)`); err == nil {
		t.Error("missing partition value should fail")
	}
}
