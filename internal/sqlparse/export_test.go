package sqlparse

import "slices"

// The external test package builds statements with core, which imports
// this package; the hand-written inputs and the lexer differential reach
// it through these names.

// FrontEndInputs are the hand-written statements the front-end checks
// run: the FuzzParse seeds, every statement parser_test.go parses, and
// spellings that take each folding path of the lexer and parser.
var FrontEndInputs = slices.Concat(parseSeeds, parserTestInputs, foldingInputs)

// LexDiff is lexDiff.
var LexDiff = lexDiff

// parserTestInputs are the statements parser_test.go parses.
var parserTestInputs = []string{
	`CREATE TABLE t (Id INT, Name STRING, amount DECIMAL(10,2)) STORED AS ORC`,
	`CREATE TABLE t (a ARRAY<INT>, m MAP<STRING, INT>, s STRUCT<x:INT, y:STRING>) USING PARQUET`,
	`CREATE TABLE IF NOT EXISTS t (a INT) STORED AS AVRO TBLPROPERTIES ('k1'='v1', 'k2'='v2')`,
	`DROP TABLE IF EXISTS t`,
	`INSERT INTO t VALUES (1, 'a', true, NULL), (-2, 'b', false, 3.14)`,
	`INSERT INTO t VALUES (DATE '2021-06-15', TIMESTAMP '2021-06-15 10:00:00', X'CAFE')`,
	`INSERT INTO t VALUES (ARRAY(1, 2, 3), MAP('a', 1, 'b', 2), NAMED_STRUCT('x', 1, 'y', 'two'))`,
	`SELECT * FROM t`,
	`SELECT a, B FROM t WHERE a >= 10`,
	`INSERT INTO t VALUES (CAST('5' AS INT))`,
	"",
	"SELECT",
	"CREATE t",
	"INSERT INTO t",
	"SELECT * FROM t WHERE",
	"INSERT INTO t VALUES (MAP('a'))",
	"CREATE TABLE t (a NOTATYPE)",
	"SELECT * FROM t extra garbage ~",
	"INSERT INTO t VALUES ('unterminated)",
	"SELECT * FROM t -- trailing comment",
	"INSERT INTO t VALUES (MAP())",
	`INSERT INTO t VALUES ('it''s', 'a\nb')`,
	`SELECT * FROM t WHERE a > 1 ORDER BY b DESC LIMIT 10`,
	`SELECT * FROM t ORDER BY b ASC`,
	`SELECT * FROM t ORDER b`,
	`SELECT * FROM t LIMIT -1`,
	`SELECT * FROM t LIMIT x`,
	`CREATE TABLE t (a INT) PARTITIONED BY (day STRING, bucket INT) STORED AS ORC`,
	`CREATE TABLE t (a INT) PARTITIONED (day STRING)`,
	`CREATE TABLE t (a INT) PARTITIONED BY day STRING`,
	`CREATE TABLE t (a INT) PARTITIONED BY (day STRING`,
	`INSERT OVERWRITE TABLE t VALUES (1)`,
	`INSERT INTO TABLE t VALUES (1)`,
	"SELECT * FROM `My Table`;",
	"SELECT * FROM `unterminated",
	"SELECT ~ FROM t",
	"SELECT ! FROM t",
	"SELECT * FROM t WHERE a != 1",
	`INSERT INTO t VALUES (X'GG')`,
	`INSERT INTO t VALUES (x'ff')`,
	"SELECT * FROM",
}

// foldingInputs spell keywords, type names, formats and aggregates in
// mixed case and through backquotes, including non-ASCII spellings that
// strings.ToUpper folds onto an ASCII keyword (ı to I, ſ to S), and put
// escaped string literals where an error quotes them.
var foldingInputs = []string{
	"select count(*), Sum(b), max(`c`), avg(d), Min(e) from T group by a order by b desc limit 3",
	"SELECT sum(*) FROM t",
	"SELECT `count`(a), `Count` FROM t",
	"SELECT count, sum FROM t",
	"create table if not exists T (a int, b decimal(5, 2), c varchar(3), d array<struct<Xy:int, zW:Map<string,bigint>>>) partitioned by (p date) stored as Orc",
	"CREATE TABLE t (a Decimal, b numeric(4), c Char(2), d long, e short, f byte, g bool, h real, i text, j integer, k timestamp, l binary) USING Parquet",
	"CREATE TABLE t (a DECIMAL(1e5))",
	"CREATE TABLE t (a decimal(x))",
	"CREATE TABLE t (a decimal(1,",
	"CREATE TABLE t (a array<int)",
	"CREATE TABLE t (a array<int>=)",
	"CREATE TABLE t (a CHAR)",
	"CREATE TABLE t (a foo)",
	"CREATE TABLE t (a Foo(3))",
	"CREATE TABLE t (a `ınt`, b `ſtring`, c `Ｉnt`)",
	"CREATE TABLE t (a `decımal`(3,1))",
	"CREATE TABLE t (a `ınt`, b `ſtring`, c `ſtruct`<ıd:ınt>, `ſelect` `tınyınt`)",
	"SELECT `ſum`(a), `coUnt`(*) FROM `ſelect_ıt`",
	"CREATE TABLE t (a INT) STORED AS `Pärquet`",
	"CREATE TABLE t (a INT) USING `ſ`",
	"CREATE TABLE t (a INT) STORED AS table",
	"CREATE TABLE t (a INT) STORED AS 'orc'",
	"CREATE TABLE t (a INT) TBLPROPERTIES ('k'='v', 'k'='w', 'it''s'='a\\'b')",
	"CREATE TABLE t (a INT) TBLPROPERTIES ()",
	"`ſelect` * `froM` t",
	"`SELECT` `*` FROM t",
	"DROP TABLE `Weird`",
	"drop table if exists `ıf`",
	"insert overwrite table T values (x'CAFE', date '2020-01-01', Timestamp '2020-01-01 00:00:00', null, True, fAlse)",
	"insert into t values (named_struct('a', 1), map('k', 1), array(1), cast(1 as bigint), cast('x' as varchar(2)))",
	"INSERT INTO t VALUES (`null`, `TRUE`)",
	"INSERT INTO t VALUES (Nul)",
	"INSERT INTO t VALUES ('it''s' 'x')",
	"SELECT * FROM t 'it''s'",
	"SELECT * FROM t 'a\\'b\\n\\t\\\\\\q'",
	"SELECT * FROM t WHERE a = 'it''s'",
	"SELECT * FROM t WHERE a = 'x\\",
	"SELECT * FROM t WHERE a = ''",
	"SELECT * FROM t WHERE a = ''''",
	"SELECT * FROM t WHERE a <> X''",
	"SELECT * FROM t WHERE a 'x'",
	"SELECT * FROM t WHERE a = b",
	"SELECT * FROM t LIMIT 1e3",
	"SELECT * FROM t order by a Asc",
	"SELECT a FROM t WHERE a = .5e-3",
	"INSERT INTO t VALUES (X'ab' 'c')",
	"INSERT INTO t VALUES (X'abc')",
	"INSERT INTO t VALUES (x'",
	"xyzzy",
	"Select",
	"SELECT * FROM t;;",
	"SELECT a, FROM t",
	"CREATE TABLE t (a INT,)",
	"CREATE TABLE t (select INT)",
	"CREATE TABLE x (x INT) STORED AS x",
	"SELECT * FROM t WHERE a = -'x'",
}
