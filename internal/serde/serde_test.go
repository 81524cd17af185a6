package serde

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlval"
)

// formatNames are the three format names ByName resolves, in the
// paper's order.
var formatNames = []string{"orc", "parquet", "avro"}

func sampleSchema() Schema {
	return Schema{Columns: []Column{
		{Name: "Id", Type: sqlval.Int},
		{Name: "name", Type: sqlval.String},
		{Name: "score", Type: sqlval.Double},
		{Name: "amount", Type: sqlval.DecimalType(10, 2)},
		{Name: "created", Type: sqlval.Timestamp},
		{Name: "tags", Type: sqlval.ArrayType(sqlval.String)},
		{Name: "attrs", Type: sqlval.MapType(sqlval.String, sqlval.Int)},
		{Name: "nested", Type: sqlval.StructType(sqlval.Field{Name: "x", Type: sqlval.Int})},
	}}
}

func sampleRows() []sqlval.Row {
	d, _ := sqlval.ParseDecimal("12.34")
	return []sqlval.Row{
		{
			sqlval.IntVal(sqlval.Int, 1),
			sqlval.StringVal("alice"),
			sqlval.DoubleVal(3.14),
			sqlval.DecimalVal(sqlval.DecimalType(10, 2), d),
			sqlval.TimestampVal(1234567890123456),
			sqlval.ArrayVal(sqlval.ArrayType(sqlval.String), sqlval.StringVal("a"), sqlval.StringVal("b")),
			sqlval.MapVal(sqlval.MapType(sqlval.String, sqlval.Int), sqlval.StringVal("k"), sqlval.IntVal(sqlval.Int, 7)),
			sqlval.StructVal(sqlval.StructType(sqlval.Field{Name: "x", Type: sqlval.Int}), sqlval.IntVal(sqlval.Int, 9)),
		},
		{
			sqlval.NullOf(sqlval.Int),
			sqlval.NullOf(sqlval.String),
			sqlval.NullOf(sqlval.Double),
			sqlval.NullOf(sqlval.DecimalType(10, 2)),
			sqlval.NullOf(sqlval.Timestamp),
			sqlval.NullOf(sqlval.ArrayType(sqlval.String)),
			sqlval.NullOf(sqlval.MapType(sqlval.String, sqlval.Int)),
			sqlval.NullOf(sqlval.StructType(sqlval.Field{Name: "x", Type: sqlval.Int})),
		},
	}
}

func TestByName(t *testing.T) {
	for _, name := range formatNames {
		f, err := ByName(name)
		if err != nil || f.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, f, err)
		}
	}
	if _, err := ByName("csv"); err == nil {
		t.Error("expected error for unknown format")
	}
}

func TestParquetRoundTripExact(t *testing.T) {
	meta := map[string]string{MetaWriterEngine: "spark", MetaSparkSchema: sampleSchema().String()}
	data, err := (Parquet{}).Encode(sampleSchema(), meta, sampleRows())
	if err != nil {
		t.Fatal(err)
	}
	f, err := (Parquet{}).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Schema.Equal(sampleSchema()) {
		t.Errorf("schema = %v", f.Schema)
	}
	if f.Meta[MetaWriterEngine] != "spark" {
		t.Errorf("meta lost: %v", f.Meta)
	}
	for i, row := range sampleRows() {
		if !f.Rows[i].Equal(row) {
			t.Errorf("row %d = %v, want %v", i, f.Rows[i], row)
		}
	}
}

func TestORCPositionalNames(t *testing.T) {
	// Hive's writer convention (SPARK-21686): real names are lost.
	data, err := (ORC{PositionalNames: true}).Encode(sampleSchema(), nil, sampleRows())
	if err != nil {
		t.Fatal(err)
	}
	f, err := (ORC{}).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema.Columns[0].Name != "_col0" || f.Schema.Columns[1].Name != "_col1" {
		t.Errorf("names = %v", f.Schema.ColumnNames())
	}
	// Types and data survive.
	if !f.Schema.Columns[0].Type.Equal(sqlval.Int) {
		t.Errorf("type = %v", f.Schema.Columns[0].Type)
	}
	if !f.Rows[0][1].EqualData(sqlval.StringVal("alice")) {
		t.Errorf("data = %v", f.Rows[0][1])
	}
}

func TestORCPreservedNames(t *testing.T) {
	data, err := (ORC{}).Encode(sampleSchema(), map[string]string{"k": "v"}, sampleRows())
	if err != nil {
		t.Fatal(err)
	}
	f, err := (ORC{}).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema.Columns[0].Name != "Id" {
		t.Errorf("names = %v", f.Schema.ColumnNames())
	}
	if f.Meta["k"] != "v" {
		t.Errorf("meta = %v", f.Meta)
	}
}

func TestAvroWidensSmallIntegrals(t *testing.T) {
	// SPARK-39075 model: BYTE/SHORT become INT in the writer schema.
	schema := Schema{Columns: []Column{
		{Name: "b", Type: sqlval.TinyInt},
		{Name: "s", Type: sqlval.SmallInt},
	}}
	rows := []sqlval.Row{{sqlval.IntVal(sqlval.TinyInt, 5), sqlval.IntVal(sqlval.SmallInt, 6)}}
	data, err := (Avro{}).Encode(schema, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	f, err := (Avro{}).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema.Columns[0].Type.Kind != sqlval.KindInt || f.Schema.Columns[1].Type.Kind != sqlval.KindInt {
		t.Errorf("writer schema = %v", f.Schema)
	}
	if f.Rows[0][0].Int() != 5 || f.Rows[0][1].Int() != 6 {
		t.Errorf("values = %v", f.Rows[0])
	}
}

func TestAvroFoldsCharVarchar(t *testing.T) {
	schema := Schema{Columns: []Column{
		{Name: "c", Type: sqlval.CharType(4)},
		{Name: "v", Type: sqlval.VarcharType(8)},
	}}
	rows := []sqlval.Row{{sqlval.CharVal("ab  ", 4), sqlval.VarcharVal("xyz", 8)}}
	data, err := (Avro{}).Encode(schema, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	f, err := (Avro{}).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema.Columns[0].Type.Kind != sqlval.KindString || f.Schema.Columns[1].Type.Kind != sqlval.KindString {
		t.Errorf("schema = %v", f.Schema)
	}
}

func TestAvroRejectsNonStringMapKeys(t *testing.T) {
	// HIVE-26531 model: MAP<INT, …> is an Avro write-time error while
	// ORC and Parquet accept it.
	schema := Schema{Columns: []Column{{Name: "m", Type: sqlval.MapType(sqlval.Int, sqlval.String)}}}
	row := sqlval.Row{sqlval.MapVal(sqlval.MapType(sqlval.Int, sqlval.String), sqlval.IntVal(sqlval.Int, 1), sqlval.StringVal("x"))}
	_, err := (Avro{}).Encode(schema, nil, []sqlval.Row{row})
	var ue *UnsupportedError
	if !errors.As(err, &ue) || !strings.Contains(ue.Reason, "map keys must be STRING") {
		t.Fatalf("avro err = %v", err)
	}
	if _, err := (ORC{}).Encode(schema, nil, []sqlval.Row{row}); err != nil {
		t.Errorf("orc should accept: %v", err)
	}
	if _, err := (Parquet{}).Encode(schema, nil, []sqlval.Row{row}); err != nil {
		t.Errorf("parquet should accept: %v", err)
	}
}

func TestAvroDropsMetadata(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "a", Type: sqlval.Int}}}
	data, err := (Avro{}).Encode(schema, map[string]string{MetaSparkSchema: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := (Avro{}).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Meta) != 0 {
		t.Errorf("avro should drop metadata, got %v", f.Meta)
	}
}

func TestDecodeRejectsWrongMagic(t *testing.T) {
	data, err := (ORC{}).Encode(sampleSchema(), nil, sampleRows())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Parquet{}).Decode(data); err == nil {
		t.Error("parquet decode of orc data should fail")
	}
	if _, err := (Avro{}).Decode([]byte{1, 2}); err == nil {
		t.Error("short data should fail")
	}
}

func TestDecodeRejectsTruncatedData(t *testing.T) {
	data, err := (Parquet{}).Encode(sampleSchema(), nil, sampleRows())
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > 4; cut /= 2 {
		if _, err := (Parquet{}).Decode(data[:cut]); err == nil {
			t.Errorf("truncated decode at %d should fail", cut)
		}
	}
}

func TestEncodeRejectsShapeMismatch(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "a", Type: sqlval.Int}}}
	_, err := (Parquet{}).Encode(schema, nil, []sqlval.Row{{sqlval.IntVal(sqlval.Int, 1), sqlval.IntVal(sqlval.Int, 2)}})
	if err == nil {
		t.Error("row wider than schema should fail")
	}
}

func TestRoundTripPropertyIntColumns(t *testing.T) {
	schema := Schema{Columns: []Column{
		{Name: "a", Type: sqlval.BigInt},
		{Name: "b", Type: sqlval.String},
	}}
	f := func(n int64, s string) bool {
		rows := []sqlval.Row{{sqlval.IntVal(sqlval.BigInt, n), sqlval.StringVal(s)}}
		for _, name := range formatNames {
			format, _ := ByName(name)
			data, err := format.Encode(schema, nil, rows)
			if err != nil {
				return false
			}
			decoded, err := format.Decode(data)
			if err != nil {
				return false
			}
			if decoded.Rows[0][0].Int() != n || decoded.Rows[0][1].Str() != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaEqualAndString(t *testing.T) {
	s := sampleSchema()
	if !s.Equal(sampleSchema()) {
		t.Error("schema should equal itself")
	}
	other := sampleSchema()
	other.Columns[0].Name = "id"
	if s.Equal(other) {
		t.Error("case-different names must not be equal")
	}
	if !strings.Contains(s.String(), "Id:INT") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestDecodeNeverPanicsOnCorruptInput(t *testing.T) {
	// Robustness: arbitrary byte mutations of a valid file must yield
	// an error or a well-formed result, never a panic — read-side
	// crashes on foreign data are exactly the failure class the study
	// catalogues.
	data, err := (Parquet{}).Encode(sampleSchema(), map[string]string{"k": "v"}, sampleRows())
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, val byte) bool {
		mutated := append([]byte(nil), data...)
		mutated[int(pos)%len(mutated)] = val
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked at pos %d val %d: %v", pos, val, r)
			}
		}()
		file, err := (Parquet{}).Decode(mutated)
		if err != nil {
			return true
		}
		// A successful decode must be internally consistent.
		for _, row := range file.Rows {
			if len(row) != len(file.Schema.Columns) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		for _, name := range formatNames {
			format, _ := ByName(name)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s decode panicked: %v", name, r)
					}
				}()
				_, _ = format.Decode(data)
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
