package hivesim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/hdfssim"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

func newHive(t *testing.T) *Hive {
	t.Helper()
	return New(hdfssim.New(nil), NewMetastore())
}

func exec(t *testing.T, h *Hive, q string) *Result {
	t.Helper()
	res, err := h.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE users (id INT, name STRING) STORED AS ORC`)
	exec(t, h, `INSERT INTO users VALUES (1, 'alice'), (2, 'bob')`)
	res := exec(t, h, `SELECT * FROM users`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Str() != "alice" {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if res.Columns[0].Name != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestMetastoreLowercasesNames(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE MixedCase (UserId INT, UserName STRING)`)
	table, err := h.Metastore().GetTable("mixedcase")
	if err != nil {
		t.Fatal(err)
	}
	if table.Columns[0].Name != "userid" || table.Columns[1].Name != "username" {
		t.Errorf("columns = %v", table.Columns)
	}
	// Lookup is case-insensitive.
	if _, err := h.Metastore().GetTable("MIXEDCASE"); err != nil {
		t.Error(err)
	}
}

func TestDuplicateCaseInsensitiveColumnsRejected(t *testing.T) {
	h := newHive(t)
	if _, err := h.Execute(`CREATE TABLE t (a INT, A STRING)`); err == nil {
		t.Error("case-colliding columns should be rejected")
	}
}

func TestSelectWithWhereAndProjection(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (id INT, score DOUBLE)`)
	exec(t, h, `INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)`)
	res := exec(t, h, `SELECT id FROM t WHERE score > 2.0`)
	if len(res.Rows) != 2 || len(res.Rows[0]) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestHiveLenientCoercionSilentNull(t *testing.T) {
	// The error-handling oracle's target: invalid input becomes NULL
	// with no feedback.
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (n INT)`)
	res := exec(t, h, `INSERT INTO t VALUES ('not-a-number')`)
	if len(res.Warnings) != 0 {
		t.Errorf("warnings = %v", res.Warnings)
	}
	out := exec(t, h, `SELECT * FROM t`)
	if !out.Rows[0][0].IsNull() {
		t.Errorf("row = %v", out.Rows[0])
	}
}

func TestHiveOutOfRangeBecomesNull(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (b TINYINT)`)
	exec(t, h, `INSERT INTO t VALUES (200)`)
	out := exec(t, h, `SELECT * FROM t`)
	if !out.Rows[0][0].IsNull() {
		t.Errorf("row = %v", out.Rows[0])
	}
}

func TestCharPaddedOnRead(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (c CHAR(4))`)
	exec(t, h, `INSERT INTO t VALUES ('ab')`)
	out := exec(t, h, `SELECT * FROM t`)
	if out.Rows[0][0].Str() != "ab  " {
		t.Errorf("char = %q", out.Rows[0][0].Str())
	}
}

func TestAvroTableRegistersIntForSmallIntegrals(t *testing.T) {
	// HIVE-26533: the Avro SerDe derives INT for TINYINT/SMALLINT.
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (b TINYINT, s SMALLINT, i INT) STORED AS AVRO`)
	table, _ := h.Metastore().GetTable("t")
	for i := 0; i < 3; i++ {
		if table.Columns[i].Type.Kind != sqlval.KindInt {
			t.Errorf("col %d = %v", i, table.Columns[i].Type)
		}
	}
	exec(t, h, `INSERT INTO t VALUES (1, 2, 3)`)
	out := exec(t, h, `SELECT * FROM t`)
	if out.Rows[0][0].Kind() != sqlval.KindInt || out.Rows[0][0].Int() != 1 {
		t.Errorf("read = %v", out.Rows[0])
	}
}

func TestAvroRejectsNonStringMapKeysOnInsert(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (m MAP<INT, STRING>) STORED AS AVRO`)
	_, err := h.Execute(`INSERT INTO t VALUES (MAP(1, 'x'))`)
	if err == nil || !strings.Contains(err.Error(), "map keys must be STRING") {
		t.Errorf("err = %v", err)
	}
	// ORC tables accept the same data.
	exec(t, h, `CREATE TABLE t2 (m MAP<INT, STRING>) STORED AS ORC`)
	exec(t, h, `INSERT INTO t2 VALUES (MAP(1, 'x'))`)
	out := exec(t, h, `SELECT * FROM t2`)
	if out.Rows[0][0].Len() != 1 || out.Rows[0][0].Key(0).Int() != 1 {
		t.Errorf("map = %v", out.Rows[0][0])
	}
}

func TestORCWritesPositionalNames(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (UserId INT) STORED AS ORC`)
	exec(t, h, `INSERT INTO t VALUES (7)`)
	table, _ := h.Metastore().GetTable("t")
	paths := h.FileSystem().List(table.Location)
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	data, _ := h.FileSystem().Read(paths[0])
	// The ORC file itself carries _col0, not userid.
	if !strings.Contains(string(data), "_col0") {
		t.Error("orc file should carry positional names")
	}
	// Hive still reads it back via positional resolution.
	out := exec(t, h, `SELECT * FROM t`)
	if out.Rows[0][0].Int() != 7 {
		t.Errorf("read = %v", out.Rows[0])
	}
}

func TestDateHybridCalendarRoundTripsWithinHive(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (d DATE)`)
	exec(t, h, `INSERT INTO t VALUES (DATE '1500-06-01'), (DATE '2021-06-15')`)
	out := exec(t, h, `SELECT * FROM t`)
	if got := sqlval.FormatDate(out.Rows[0][0].Int()); got != "1500-06-01" {
		t.Errorf("pre-cutover date = %s", got)
	}
	if got := sqlval.FormatDate(out.Rows[1][0].Int()); got != "2021-06-15" {
		t.Errorf("modern date = %s", got)
	}
	// But the stored day count is the hybrid one, visible to other
	// engines: the raw file value differs from the proleptic count.
	table, _ := h.Metastore().GetTable("t")
	rows := mustReadRaw(t, h, table)
	want, _ := sqlval.ParseDate("1500-06-01")
	if rows[0][0].Int() == want {
		t.Error("stored pre-cutover day count should be rebased")
	}
}

func mustReadRaw(t *testing.T, h *Hive, table *Table) []sqlval.Row {
	t.Helper()
	var out []sqlval.Row
	for _, p := range h.FileSystem().List(table.Location) {
		data, err := h.FileSystem().Read(p)
		if err != nil {
			t.Fatal(err)
		}
		format, err := serde.ByName(table.Format)
		if err != nil {
			t.Fatal(err)
		}
		f, err := format.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f.Rows...)
	}
	return out
}

func TestStructOfNullsFoldsToNullOnORC(t *testing.T) {
	// SPARK-40637 model: Hive's ORC reader returns NULL for a struct
	// whose members are all NULL.
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (s STRUCT<a:INT, b:STRING>) STORED AS ORC`)
	exec(t, h, `INSERT INTO t VALUES (NAMED_STRUCT('a', NULL, 'b', NULL))`)
	out := exec(t, h, `SELECT * FROM t`)
	if !out.Rows[0][0].IsNull() {
		t.Errorf("struct = %v", out.Rows[0][0])
	}
	// Parquet preserves the struct-of-nulls.
	exec(t, h, `CREATE TABLE t2 (s STRUCT<a:INT, b:STRING>) STORED AS PARQUET`)
	exec(t, h, `INSERT INTO t2 VALUES (NAMED_STRUCT('a', NULL, 'b', NULL))`)
	out = exec(t, h, `SELECT * FROM t2`)
	if out.Rows[0][0].IsNull() {
		t.Error("parquet struct-of-nulls should not fold")
	}
}

func TestDropTable(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a INT)`)
	exec(t, h, `DROP TABLE t`)
	if _, err := h.Execute(`SELECT * FROM t`); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("err = %v", err)
	}
	exec(t, h, `DROP TABLE IF EXISTS t`)
	if _, err := h.Execute(`DROP TABLE t`); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("err = %v", err)
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a INT)`)
	exec(t, h, `CREATE TABLE IF NOT EXISTS t (a INT)`)
	if _, err := h.Execute(`CREATE TABLE t (a INT)`); err == nil {
		t.Error("duplicate create should fail")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a INT, b INT)`)
	if _, err := h.Execute(`INSERT INTO t VALUES (1)`); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestMultipleInsertsAccumulate(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a INT)`)
	for i := 0; i < 3; i++ {
		exec(t, h, `INSERT INTO t VALUES (1)`)
	}
	out := exec(t, h, `SELECT * FROM t`)
	if len(out.Rows) != 3 {
		t.Errorf("rows = %d", len(out.Rows))
	}
}

func TestSelectUnknownColumn(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a INT)`)
	if _, err := h.Execute(`SELECT nope FROM t`); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestNestedValuesRoundTrip(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a ARRAY<INT>, m MAP<STRING, INT>, s STRUCT<x:INT>) STORED AS PARQUET`)
	exec(t, h, `INSERT INTO t VALUES (ARRAY(1,2), MAP('k', 9), NAMED_STRUCT('x', 5))`)
	out := exec(t, h, `SELECT * FROM t`)
	row := out.Rows[0]
	if len(row[0].Elems()) != 2 || row[0].Elems()[1].Int() != 2 {
		t.Errorf("array = %v", row[0])
	}
	if row[1].Key(0).Str() != "k" || row[1].Val(0).Int() != 9 {
		t.Errorf("map = %v", row[1])
	}
	if row[2].Elems()[0].Int() != 5 {
		t.Errorf("struct = %v", row[2])
	}
}

func TestInsertOverwriteReplacesContents(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a INT)`)
	exec(t, h, `INSERT INTO t VALUES (1), (2)`)
	exec(t, h, `INSERT OVERWRITE TABLE t VALUES (9)`)
	out := exec(t, h, `SELECT * FROM t`)
	if len(out.Rows) != 1 || out.Rows[0][0].Int() != 9 {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestAggregates(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (n INT, d DOUBLE)`)
	exec(t, h, `INSERT INTO t VALUES (1, 1.5), (2, 2.5), (NULL, 3.0), (4, NULL)`)
	res := exec(t, h, `SELECT COUNT(*), COUNT(n), SUM(n), MIN(n), MAX(n), AVG(d) FROM t`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Int() != 4 || row[1].Int() != 3 {
		t.Errorf("counts = %v, %v", row[0], row[1])
	}
	if row[2].Int() != 7 || row[3].Int() != 1 || row[4].Int() != 4 {
		t.Errorf("sum/min/max = %v %v %v", row[2], row[3], row[4])
	}
	if row[5].Float() < 2.33 || row[5].Float() > 2.34 {
		t.Errorf("avg = %v", row[5])
	}
	if res.Columns[0].Name != "count(*)" || res.Columns[2].Name != "sum(n)" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Aggregates respect WHERE.
	res = exec(t, h, `SELECT COUNT(*) FROM t WHERE n >= 2`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("filtered count = %v", res.Rows[0][0])
	}
	// Empty input: count 0, sum/min NULL.
	exec(t, h, `CREATE TABLE e (n INT)`)
	res = exec(t, h, `SELECT COUNT(*), SUM(n), MIN(n) FROM e`)
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (n INT, s STRING)`)
	if _, err := h.Execute(`SELECT n, COUNT(*) FROM t`); err == nil {
		t.Error("mixed projection should require GROUP BY")
	}
	if _, err := h.Execute(`SELECT SUM(s) FROM t`); err == nil {
		t.Error("SUM over string should fail")
	}
	if _, err := h.Execute(`SELECT COUNT(nope) FROM t`); err == nil {
		t.Error("unknown column should fail")
	}
	// MIN over strings works (lexicographic).
	exec(t, h, `INSERT INTO t VALUES (1, 'b'), (2, 'a')`)
	res := exec(t, h, `SELECT MIN(s), MAX(s) FROM t`)
	if res.Rows[0][0].Str() != "a" || res.Rows[0][1].Str() != "b" {
		t.Errorf("min/max string = %v", res.Rows[0])
	}
}

func TestGroupBy(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE sales (region STRING, amount INT)`)
	exec(t, h, `INSERT INTO sales VALUES ('east', 10), ('west', 5), ('east', 20), ('west', 7), ('north', 1)`)
	res := exec(t, h, `SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	// First-seen order: east, west, north.
	if res.Rows[0][0].Str() != "east" || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Int() != 30 {
		t.Errorf("east = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "west" || res.Rows[1][2].Int() != 12 {
		t.Errorf("west = %v", res.Rows[1])
	}
	if res.Columns[0].Name != "region" || res.Columns[2].Name != "sum(amount)" {
		t.Errorf("columns = %v", res.Columns)
	}
	// GROUP BY respects WHERE.
	res = exec(t, h, `SELECT region, COUNT(*) FROM sales WHERE amount >= 7 GROUP BY region`)
	if len(res.Rows) != 2 {
		t.Errorf("filtered groups = %v", res.Rows)
	}
	// Empty input keeps the header.
	exec(t, h, `CREATE TABLE empty (r STRING, a INT)`)
	res = exec(t, h, `SELECT r, COUNT(*) FROM empty GROUP BY r`)
	if len(res.Rows) != 0 || len(res.Columns) != 2 {
		t.Errorf("empty group = %v / %v", res.Columns, res.Rows)
	}
}

func TestGroupByErrors(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (a STRING, b INT)`)
	if _, err := h.Execute(`SELECT b, COUNT(*) FROM t GROUP BY a`); err == nil {
		t.Error("selecting a non-grouped column should fail")
	}
	if _, err := h.Execute(`SELECT nope, COUNT(*) FROM t GROUP BY nope`); err == nil {
		t.Error("unknown grouping column should fail")
	}
}
