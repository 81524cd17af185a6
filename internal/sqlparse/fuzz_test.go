package sqlparse

import (
	"testing"

	"repro/internal/sqlval"
)

// parseSeeds are FuzzParse's seed corpus.
var parseSeeds = []string{
	"SELECT * FROM t",
	"CREATE TABLE t (a INT, b ARRAY<MAP<STRING,INT>>) PARTITIONED BY (p STRING) STORED AS ORC",
	"INSERT INTO t VALUES (1, 'x', NULL, ARRAY(1,2), NAMED_STRUCT('a', 1))",
	"INSERT OVERWRITE TABLE t VALUES (X'CAFE', DATE '2021-01-01')",
	"SELECT a, b FROM t WHERE a >= 10 ORDER BY b DESC LIMIT 5;",
	"DROP TABLE IF EXISTS `weird name`",
	"SELECT",
	"((((",
	"'unterminated",
	"CREATE TABLE t (a DECIMAL(38,38))",
	"INSERT INTO t VALUES (MAP('k', 1, 'j', 2.5), CAST('ab' AS CHAR(4)), -1.25e3)",
	"INSERT INTO t VALUES (MAP())",
	"INSERT INTO t VALUES (0.0000000000000000001)",
}

// FuzzParse asserts the parser's total safety: any input yields a
// statement or an error, never a panic, and so does evaluating every
// literal of an accepted INSERT in each cast mode. (Run `go test
// -fuzz=FuzzParse` for an extended exploration; the seed corpus runs in
// normal tests.)
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err == nil && stmt == nil {
			t.Fatal("nil statement without error")
		}
		ins, ok := stmt.(*Insert)
		if !ok {
			return
		}
		for _, row := range ins.Rows {
			for _, e := range row {
				for _, mode := range []sqlval.CastMode{sqlval.CastANSI, sqlval.CastLegacy, sqlval.CastHive} {
					if v, err := Eval(e, mode); err == nil {
						_ = v.String()
					}
				}
			}
		}
	})
}
