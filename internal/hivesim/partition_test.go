package hivesim

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/serde"
	"repro/internal/sqlval"
)

func TestEscapeUnescapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		esc := EscapePartitionValue(s)
		// Escaped form contains only path-safe bytes and '%'.
		for i := 0; i < len(esc); i++ {
			if !hiveSafePathByte(esc[i]) && esc[i] != '%' {
				return false
			}
		}
		return UnescapePartitionValue(esc) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionDirRendering(t *testing.T) {
	cols := []serde.Column{
		{Name: "day", Type: sqlval.String},
		{Name: "bucket", Type: sqlval.Int},
	}
	dir, err := PartitionDir(cols, sqlval.Row{sqlval.StringVal("a b"), sqlval.IntVal(sqlval.Int, 7)}, EscapePartitionValue)
	if err != nil {
		t.Fatal(err)
	}
	if dir != "day=a%20b/bucket=7" {
		t.Errorf("dir = %q", dir)
	}
	// NULL values use the Hive default partition.
	dir, err = PartitionDir(cols[:1], sqlval.Row{sqlval.NullOf(sqlval.String)}, EscapePartitionValue)
	if err != nil || dir != "day=__HIVE_DEFAULT_PARTITION__" {
		t.Errorf("dir = %q, %v", dir, err)
	}
	// Arity mismatch.
	if _, err := PartitionDir(cols, sqlval.Row{sqlval.StringVal("x")}, EscapePartitionValue); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestParsePartitionValues(t *testing.T) {
	table := &Table{
		Name:     "t",
		Location: "/warehouse/t",
		PartitionCols: []serde.Column{
			{Name: "day", Type: sqlval.String},
			{Name: "bucket", Type: sqlval.Int},
		},
	}
	row, err := ParsePartitionValues(table, "/warehouse/t/day=a%20b/bucket=7/part-00000.orc",
		UnescapePartitionValue, sqlval.CastHive)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Str() != "a b" || row[1].Int() != 7 {
		t.Errorf("row = %v", row)
	}
	// Wrong level count.
	if _, err := ParsePartitionValues(table, "/warehouse/t/part-0.orc", UnescapePartitionValue, sqlval.CastHive); err == nil {
		t.Error("missing partition levels should fail")
	}
	// Wrong column name.
	if _, err := ParsePartitionValues(table, "/warehouse/t/other=x/bucket=1/part-0.orc", UnescapePartitionValue, sqlval.CastHive); err == nil {
		t.Error("mismatched partition name should fail")
	}
	// Unpartitioned table: nil values.
	plain := &Table{Name: "p", Location: "/warehouse/p"}
	row, err = ParsePartitionValues(plain, "/warehouse/p/part-0.orc", UnescapePartitionValue, sqlval.CastHive)
	if err != nil || row != nil {
		t.Errorf("plain = %v, %v", row, err)
	}
}

func TestMetastoreHelpers(t *testing.T) {
	ms := NewMetastore()
	tbl, err := ms.CreateTablePartitioned("T1",
		[]serde.Column{{Name: "A", Type: sqlval.Int}},
		[]serde.Column{{Name: "Day", Type: sqlval.String}}, "orc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.PartitionCols[0].Name != "day" {
		t.Errorf("partition column not lowercased: %v", tbl.PartitionCols)
	}
	all := tbl.AllColumns()
	if len(all) != 2 || all[1].Name != "day" {
		t.Errorf("all columns = %v", all)
	}
	if names := ms.Tables(); len(names) != 1 || names[0] != "t1" {
		t.Errorf("tables = %v", names)
	}
	ms.SetProp(tbl, "k", "v")
	if ms.Prop(tbl, "k") != "v" {
		t.Error("prop round trip")
	}
	p := ms.NextPart(tbl)
	if !strings.HasPrefix(p, "/warehouse/t1/part-") {
		t.Errorf("part = %q", p)
	}
	// Duplicate across data and partition columns is rejected.
	if _, err := ms.CreateTablePartitioned("t2",
		[]serde.Column{{Name: "a", Type: sqlval.Int}},
		[]serde.Column{{Name: "A", Type: sqlval.String}}, "orc", nil); err == nil {
		t.Error("case-colliding data/partition columns should be rejected")
	}
}

// A table created without properties holds none, and SetProp gives it
// some; a table created with properties owns a copy of them.
func TestMetastorePropsOwnership(t *testing.T) {
	ms := NewMetastore()
	cols := []serde.Column{{Name: "a", Type: sqlval.Int}}
	for name, props := range map[string]map[string]string{"nil_props": nil, "empty_props": {}} {
		tbl, err := ms.CreateTable(name, cols, "orc", props)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Props != nil || ms.Prop(tbl, "k") != "" {
			t.Errorf("%s: props = %v, want none", name, tbl.Props)
		}
		ms.SetProp(tbl, "k", "v")
		if ms.Prop(tbl, "k") != "v" {
			t.Errorf("%s: SetProp did not take", name)
		}
		if len(props) != 0 {
			t.Errorf("%s: SetProp wrote through to the caller's map: %v", name, props)
		}
	}
	props := map[string]string{"k": "v"}
	tbl, err := ms.CreateTable("owned", cols, "orc", props)
	if err != nil {
		t.Fatal(err)
	}
	props["k"] = "changed"
	props["extra"] = "x"
	if ms.Prop(tbl, "k") != "v" || ms.Prop(tbl, "extra") != "" {
		t.Errorf("mutating the caller's map reached the table: %v", tbl.Props)
	}
	ms.SetProp(tbl, "k", "w")
	if props["k"] != "changed" {
		t.Errorf("SetProp wrote through to the caller's map: %v", props)
	}
}

func TestProjectWhereOperators(t *testing.T) {
	h := newHive(t)
	exec(t, h, `CREATE TABLE t (id INT)`)
	exec(t, h, `INSERT INTO t VALUES (1), (2), (3)`)
	cases := map[string]int{
		`SELECT * FROM t WHERE id = 2`:  1,
		`SELECT * FROM t WHERE id != 2`: 2,
		`SELECT * FROM t WHERE id <> 2`: 2,
		`SELECT * FROM t WHERE id < 2`:  1,
		`SELECT * FROM t WHERE id <= 2`: 2,
		`SELECT * FROM t WHERE id > 2`:  1,
		`SELECT * FROM t WHERE id >= 2`: 2,
	}
	for q, want := range cases {
		res := exec(t, h, q)
		if len(res.Rows) != want {
			t.Errorf("%s -> %d rows, want %d", q, len(res.Rows), want)
		}
	}
	// NULL never matches.
	exec(t, h, `INSERT INTO t VALUES (NULL)`)
	res := exec(t, h, `SELECT * FROM t WHERE id >= 0`)
	if len(res.Rows) != 3 {
		t.Errorf("NULL matched: %v", res.Rows)
	}
}

func TestAvroDeriveNested(t *testing.T) {
	in := []serde.Column{
		{Name: "a", Type: sqlval.ArrayType(sqlval.TinyInt)},
		{Name: "m", Type: sqlval.MapType(sqlval.String, sqlval.SmallInt)},
		{Name: "s", Type: sqlval.StructType(sqlval.Field{Name: "x", Type: sqlval.TinyInt})},
	}
	out := AvroMetastoreColumns(in)
	if out[0].Type.Elem().Kind != sqlval.KindInt {
		t.Errorf("array elem = %v", out[0].Type)
	}
	if out[1].Type.Val().Kind != sqlval.KindInt {
		t.Errorf("map value = %v", out[1].Type)
	}
	if out[2].Type.Fields()[0].Type.Kind != sqlval.KindInt {
		t.Errorf("struct field = %v", out[2].Type)
	}
}

func TestSerDeErrorRendering(t *testing.T) {
	e := &SerDeError{Table: "t", Column: "c", Detail: "boom"}
	if !strings.Contains(e.Error(), "SerDeException") || !strings.Contains(e.Error(), "t.c") {
		t.Errorf("err = %q", e.Error())
	}
}
