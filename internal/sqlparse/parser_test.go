package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/sqlval"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE t (Id INT, Name STRING, amount DECIMAL(10,2)) STORED AS ORC`)
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Table != "t" || len(ct.Columns) != 3 || ct.Format != "orc" {
		t.Errorf("ct = %+v", ct)
	}
	if ct.Columns[0].Name != "Id" || !ct.Columns[2].Type.Equal(sqlval.DecimalType(10, 2)) {
		t.Errorf("columns = %+v", ct.Columns)
	}
}

func TestParseCreateTableNestedTypes(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE t (a ARRAY<INT>, m MAP<STRING, INT>, s STRUCT<x:INT, y:STRING>) USING PARQUET`)
	ct := stmt.(*CreateTable)
	if !ct.Columns[0].Type.Equal(sqlval.ArrayType(sqlval.Int)) {
		t.Errorf("array = %v", ct.Columns[0].Type)
	}
	if !ct.Columns[1].Type.Equal(sqlval.MapType(sqlval.String, sqlval.Int)) {
		t.Errorf("map = %v", ct.Columns[1].Type)
	}
	if ct.Columns[2].Type.Kind != sqlval.KindStruct || len(ct.Columns[2].Type.Fields()) != 2 {
		t.Errorf("struct = %v", ct.Columns[2].Type)
	}
	if ct.Format != "parquet" {
		t.Errorf("format = %q", ct.Format)
	}
}

func TestParseCreateTableIfNotExistsAndProps(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE IF NOT EXISTS t (a INT) STORED AS AVRO TBLPROPERTIES ('k1'='v1', 'k2'='v2')`)
	ct := stmt.(*CreateTable)
	if !ct.IfNotExists || ct.Props["k1"] != "v1" || ct.Props["k2"] != "v2" {
		t.Errorf("ct = %+v", ct)
	}
}

func TestParseDropTable(t *testing.T) {
	stmt := mustParse(t, `DROP TABLE IF EXISTS t`)
	dt := stmt.(*DropTable)
	if dt.Table != "t" || !dt.IfExists {
		t.Errorf("dt = %+v", dt)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO t VALUES (1, 'a', true, NULL), (-2, 'b', false, 3.14)`)
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 4 {
		t.Fatalf("ins = %+v", ins)
	}
	n := ins.Rows[1][0].(NumberLit)
	if !n.Neg || n.Raw != "2" {
		t.Errorf("neg literal = %+v", n)
	}
}

func TestParseInsertTypedLiterals(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO t VALUES (DATE '2021-06-15', TIMESTAMP '2021-06-15 10:00:00', X'CAFE')`)
	ins := stmt.(*Insert)
	d := ins.Rows[0][0].(TypedLit)
	if d.Type.Kind != sqlval.KindDate || d.Raw != "2021-06-15" {
		t.Errorf("date lit = %+v", d)
	}
	b := ins.Rows[0][2].(BinaryLit)
	if len(b.Value) != 2 || b.Value[0] != 0xCA || b.Value[1] != 0xFE {
		t.Errorf("binary lit = %+v", b)
	}
}

func TestParseInsertCollections(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO t VALUES (ARRAY(1, 2, 3), MAP('a', 1, 'b', 2), NAMED_STRUCT('x', 1, 'y', 'two'))`)
	ins := stmt.(*Insert)
	if len(ins.Rows[0][0].(ArrayLit).Items) != 3 {
		t.Error("array items")
	}
	m := ins.Rows[0][1].(MapLit)
	if len(m.Keys) != 2 || len(m.Vals) != 2 {
		t.Error("map pairs")
	}
	s := ins.Rows[0][2].(StructLit)
	if len(s.Names) != 2 || s.Names[1] != "y" {
		t.Errorf("struct = %+v", s)
	}
}

func TestParseSelect(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t`)
	sel := stmt.(*Select)
	if !sel.Items[0].Star || sel.Table != "t" || sel.Where != nil {
		t.Errorf("sel = %+v", sel)
	}
	stmt = mustParse(t, `SELECT a, B FROM t WHERE a >= 10`)
	sel = stmt.(*Select)
	if len(sel.Items) != 2 || sel.Items[1].Column != "B" {
		t.Errorf("items = %+v", sel.Items)
	}
	if sel.Where == nil || sel.Where.Op != ">=" || sel.Where.Column != "a" {
		t.Errorf("where = %+v", sel.Where)
	}
}

func TestParseCast(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO t VALUES (CAST('5' AS INT))`)
	ins := stmt.(*Insert)
	c := ins.Rows[0][0].(CastExpr)
	if !c.To.Equal(sqlval.Int) {
		t.Errorf("cast = %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"CREATE t",
		"INSERT INTO t",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES (MAP('a'))",
		"CREATE TABLE t (a NOTATYPE)",
		"SELECT * FROM t extra garbage ~",
		"INSERT INTO t VALUES ('unterminated)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t -- trailing comment")
	if stmt.(*Select).Table != "t" {
		t.Error("comment handling broken")
	}
}

func TestEvalNumbers(t *testing.T) {
	v, err := Eval(NumberLit{Raw: "42"}, sqlval.CastANSI)
	if err != nil || v.Kind() != sqlval.KindInt || v.Int() != 42 {
		t.Errorf("int = %v, %v", v, err)
	}
	v, _ = Eval(NumberLit{Raw: "3000000000"}, sqlval.CastANSI)
	if v.Kind() != sqlval.KindBigInt {
		t.Errorf("big = %v", v)
	}
	v, _ = Eval(NumberLit{Raw: "1.25"}, sqlval.CastANSI)
	if v.Kind() != sqlval.KindDecimal || v.Dec().String() != "1.25" {
		t.Errorf("decimal = %v", v)
	}
	v, _ = Eval(NumberLit{Raw: "1e3"}, sqlval.CastANSI)
	if v.Kind() != sqlval.KindDouble || v.Float() != 1000 {
		t.Errorf("double = %v", v)
	}
	v, _ = Eval(NumberLit{Raw: "5", Neg: true}, sqlval.CastANSI)
	if v.Int() != -5 {
		t.Errorf("neg = %v", v)
	}
}

func TestEvalTypedLiterals(t *testing.T) {
	v, err := Eval(TypedLit{Type: sqlval.Date, Raw: "2021-06-15"}, sqlval.CastANSI)
	if err != nil || sqlval.FormatDate(v.Int()) != "2021-06-15" {
		t.Errorf("date = %v, %v", v, err)
	}
	if _, err := Eval(TypedLit{Type: sqlval.Date, Raw: "2021-02-30"}, sqlval.CastANSI); err == nil {
		t.Error("invalid typed date literal should error")
	}
}

func TestEvalCollections(t *testing.T) {
	e := ArrayLit{Items: []Expr{NumberLit{Raw: "1"}, NumberLit{Raw: "2"}}}
	v, err := Eval(e, sqlval.CastANSI)
	if err != nil || v.Kind() != sqlval.KindArray || len(v.Elems()) != 2 {
		t.Fatalf("array = %v, %v", v, err)
	}
	m := MapLit{Keys: []Expr{StringLit{Value: "k"}}, Vals: []Expr{NumberLit{Raw: "1"}}}
	v, err = Eval(m, sqlval.CastANSI)
	if err != nil || v.Kind() != sqlval.KindMap || !v.Type().Key().Equal(sqlval.String) {
		t.Fatalf("map = %v, %v", v, err)
	}
	s := StructLit{Names: []string{"x"}, Vals: []Expr{BoolLit{Value: true}}}
	v, err = Eval(s, sqlval.CastANSI)
	if err != nil || v.Kind() != sqlval.KindStruct || !v.Elems()[0].Bool() {
		t.Fatalf("struct = %v, %v", v, err)
	}
}

func TestEvalEmptyMap(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t VALUES (MAP())").(*Insert)
	v, err := Eval(ins.Rows[0][0], sqlval.CastANSI)
	if err != nil || v.Kind() != sqlval.KindMap || v.Len() != 0 {
		t.Fatalf("MAP() = %v, %v", v, err)
	}
	if got := v.Type().String(); got != "MAP<STRING,STRING>" {
		t.Errorf("MAP() type = %s", got)
	}
}

func TestEvalMixedArrayUnifies(t *testing.T) {
	e := ArrayLit{Items: []Expr{NumberLit{Raw: "1"}, NumberLit{Raw: "2.5"}}}
	v, err := Eval(e, sqlval.CastLegacy)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type().Elem().Kind != sqlval.KindDouble {
		t.Errorf("unified elem = %v", v.Type().Elem())
	}
}

func TestEvalCast(t *testing.T) {
	c := CastExpr{Inner: StringLit{Value: "7"}, To: sqlval.BigInt}
	v, err := Eval(c, sqlval.CastANSI)
	if err != nil || v.Int() != 7 || v.Kind() != sqlval.KindBigInt {
		t.Errorf("cast = %v, %v", v, err)
	}
	bad := CastExpr{Inner: StringLit{Value: "x"}, To: sqlval.Int}
	if _, err := Eval(bad, sqlval.CastANSI); err == nil {
		t.Error("ANSI cast of 'x' should error")
	}
	v, err = Eval(bad, sqlval.CastHive)
	if err != nil || !v.IsNull() {
		t.Errorf("hive cast = %v, %v", v, err)
	}
}

func TestStringEscapes(t *testing.T) {
	stmt := mustParse(t, `INSERT INTO t VALUES ('it''s', 'a\nb')`)
	ins := stmt.(*Insert)
	if ins.Rows[0][0].(StringLit).Value != "it's" {
		t.Errorf("escape = %+v", ins.Rows[0][0])
	}
	if !strings.Contains(ins.Rows[0][1].(StringLit).Value, "\n") {
		t.Errorf("backslash escape = %+v", ins.Rows[0][1])
	}
}

func TestParseOrderByLimit(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM t WHERE a > 1 ORDER BY b DESC LIMIT 10`)
	sel := stmt.(*Select)
	if sel.OrderBy == nil || sel.OrderBy.Column != "b" || !sel.OrderBy.Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
	stmt = mustParse(t, `SELECT * FROM t ORDER BY b ASC`)
	sel = stmt.(*Select)
	if sel.OrderBy.Desc || sel.Limit != -1 {
		t.Errorf("sel = %+v", sel)
	}
	for _, bad := range []string{
		`SELECT * FROM t ORDER b`,
		`SELECT * FROM t LIMIT -1`,
		`SELECT * FROM t LIMIT x`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParsePartitionedBy(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE t (a INT) PARTITIONED BY (day STRING, bucket INT) STORED AS ORC`)
	ct := stmt.(*CreateTable)
	if len(ct.PartitionedBy) != 2 || ct.PartitionedBy[0].Name != "day" ||
		!ct.PartitionedBy[1].Type.Equal(sqlval.Int) {
		t.Errorf("partitioned by = %+v", ct.PartitionedBy)
	}
	for _, bad := range []string{
		`CREATE TABLE t (a INT) PARTITIONED (day STRING)`,
		`CREATE TABLE t (a INT) PARTITIONED BY day STRING`,
		`CREATE TABLE t (a INT) PARTITIONED BY (day STRING`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseInsertOverwrite(t *testing.T) {
	stmt := mustParse(t, `INSERT OVERWRITE TABLE t VALUES (1)`)
	if !stmt.(*Insert).Overwrite {
		t.Error("overwrite flag not set")
	}
	stmt = mustParse(t, `INSERT INTO TABLE t VALUES (1)`)
	if stmt.(*Insert).Overwrite {
		t.Error("INTO should not be overwrite")
	}
}

func TestParseTrailingSemicolonAndBackquotes(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM `My Table`;")
	if stmt.(*Select).Table != "My Table" {
		t.Errorf("table = %q", stmt.(*Select).Table)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT * FROM `unterminated",
		"SELECT ~ FROM t",
		"SELECT ! FROM t",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
	// '!=' is valid.
	stmt := mustParse(t, "SELECT * FROM t WHERE a != 1")
	if stmt.(*Select).Where.Op != "!=" {
		t.Error("!= operator")
	}
}

func TestParseHexLiteralErrors(t *testing.T) {
	if _, err := Parse(`INSERT INTO t VALUES (X'GG')`); err == nil {
		t.Error("bad hex should fail")
	}
	stmt := mustParse(t, `INSERT INTO t VALUES (x'ff')`)
	b := stmt.(*Insert).Rows[0][0].(BinaryLit)
	if len(b.Value) != 1 || b.Value[0] != 0xFF {
		t.Errorf("lowercase hex = %v", b)
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM")
	pe, ok := err.(*ParseError)
	if !ok || pe.Pos == 0 {
		t.Errorf("err = %#v", err)
	}
	if !strings.Contains(pe.Error(), "offset") {
		t.Errorf("render = %q", pe.Error())
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(NumberLit{Raw: "99999999999999999999"}, sqlval.CastANSI); err == nil {
		t.Error("out-of-range integer literal should fail")
	}
	if _, err := Eval(NumberLit{Raw: "0.0000000000000000001"}, sqlval.CastANSI); err == nil {
		t.Error("decimal literal with a 19-digit scale should fail")
	}
	if _, err := Eval(TypedLit{Type: sqlval.Timestamp, Raw: "junk"}, sqlval.CastANSI); err == nil {
		t.Error("bad timestamp literal should fail")
	}
	if _, err := Eval(TypedLit{Type: sqlval.Int, Raw: "1"}, sqlval.CastANSI); err == nil {
		t.Error("unsupported typed literal should fail")
	}
	// ANSI-mode collection with a failing element cast.
	bad := ArrayLit{Items: []Expr{StringLit{Value: "a"}, NumberLit{Raw: "1"}}}
	if v, err := Eval(bad, sqlval.CastANSI); err == nil {
		// unify picks STRING; 1 casts to "1" fine — ensure it did.
		if v.Type().Elem().Kind != sqlval.KindString {
			t.Errorf("unified = %v", v.Type())
		}
	}
}
