package sqlval

import (
	"strings"
	"testing"
)

func TestParseTypePrimitives(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"INT", Int},
		{"integer", Int},
		{"TINYINT", TinyInt},
		{"byte", TinyInt},
		{"SMALLINT", SmallInt},
		{"short", SmallInt},
		{"BIGINT", BigInt},
		{"long", BigInt},
		{"BOOLEAN", Boolean},
		{"FLOAT", Float},
		{"DOUBLE", Double},
		{"STRING", String},
		{"BINARY", Binary},
		{"DATE", Date},
		{"TIMESTAMP", Timestamp},
		{"DECIMAL(5,2)", DecimalType(5, 2)},
		{"DECIMAL(7)", DecimalType(7, 0)},
		{"DECIMAL", DecimalType(10, 0)},
		{"CHAR(4)", CharType(4)},
		{"VARCHAR(10)", VarcharType(10)},
	}
	for _, c := range cases {
		got, err := ParseType(c.in)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", c.in, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseType(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTypeNested(t *testing.T) {
	got, err := ParseType("ARRAY<INT>")
	if err != nil || !got.Equal(ArrayType(Int)) {
		t.Fatalf("ARRAY<INT> = %v, %v", got, err)
	}
	got, err = ParseType("MAP<STRING, INT>")
	if err != nil || !got.Equal(MapType(String, Int)) {
		t.Fatalf("MAP = %v, %v", got, err)
	}
	got, err = ParseType("STRUCT<a:INT, b:STRING>")
	if err != nil || !got.Equal(StructType(Field{"a", Int}, Field{"b", String})) {
		t.Fatalf("STRUCT = %v, %v", got, err)
	}
	got, err = ParseType("ARRAY<MAP<STRING,STRUCT<x:DECIMAL(5,2)>>>")
	want := ArrayType(MapType(String, StructType(Field{"x", DecimalType(5, 2)})))
	if err != nil || !got.Equal(want) {
		t.Fatalf("nested = %v, %v", got, err)
	}
}

func TestParseTypeErrors(t *testing.T) {
	for _, in := range []string{"", "FOO", "ARRAY<INT", "MAP<INT>", "CHAR", "DECIMAL(", "INT trailing"} {
		if _, err := ParseType(in); err == nil {
			t.Errorf("ParseType(%q): expected error", in)
		}
	}
}

func TestParseTypeParameterRange(t *testing.T) {
	for _, c := range []struct{ in, msg string }{
		// Overflowing int: these used to wrap to CHAR(7766279631452241919)
		// and DECIMAL(10,1).
		{"CHAR(99999999999999999999)", "CHAR length"},
		{"DECIMAL(18446744073709551626,1)", "DECIMAL precision"},
		// Past what the type word holds.
		{"VARCHAR(65536)", "VARCHAR length"},
		{"DECIMAL(256,2)", "DECIMAL precision"},
		{"DECIMAL(10,256)", "DECIMAL scale"},
		{"ARRAY<CHAR(70000)>", "CHAR length"},
	} {
		_, err := ParseType(c.in)
		if err == nil || !strings.Contains(err.Error(), c.msg) || !strings.Contains(err.Error(), c.in) {
			t.Errorf("ParseType(%q) = %v, want an error naming %s and the type", c.in, err, c.msg)
		}
	}
	for _, in := range []string{"CHAR(65535)", "VARCHAR(255)", "DECIMAL(38,18)", "DECIMAL(255,255)"} {
		got, err := ParseType(in)
		if err != nil || got.String() != in {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
}

func TestTypeConstructorsRejectWideParameters(t *testing.T) {
	for name, build := range map[string]func(){
		"CHAR":    func() { CharType(maxTypeLength + 1) },
		"VARCHAR": func() { VarcharType(-1) },
		"DECIMAL": func() { DecimalType(maxTypePrecision+1, 0) },
		"scale":   func() { DecimalType(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range parameter did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	types := []Type{
		Int, TinyInt, SmallInt, BigInt, Boolean, Float, Double, String,
		Binary, Date, Timestamp, DecimalType(9, 3), CharType(8), VarcharType(16),
		ArrayType(Int), MapType(String, Double),
		StructType(Field{"a", Int}, Field{"b", ArrayType(String)}),
	}
	for _, typ := range types {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if !got.Equal(typ) {
			t.Errorf("round trip %v -> %v", typ, got)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !Int.IsNumeric() || !Int.IsIntegral() || Int.IsCharacter() || Int.IsNested() {
		t.Error("INT predicates wrong")
	}
	if !DecimalType(5, 2).IsNumeric() || DecimalType(5, 2).IsIntegral() {
		t.Error("DECIMAL predicates wrong")
	}
	if !CharType(3).IsCharacter() || CharType(3).IsNumeric() {
		t.Error("CHAR predicates wrong")
	}
	if !ArrayType(Int).IsNested() {
		t.Error("ARRAY predicates wrong")
	}
}

func TestIntegralRange(t *testing.T) {
	min, max := IntegralRange(KindTinyInt)
	if min != -128 || max != 127 {
		t.Errorf("TINYINT range = [%d, %d]", min, max)
	}
	min, max = IntegralRange(KindInt)
	if min != -2147483648 || max != 2147483647 {
		t.Errorf("INT range = [%d, %d]", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Error("IntegralRange(KindString) did not panic")
		}
	}()
	IntegralRange(KindString)
}

func TestTypeEqualStructFieldOrder(t *testing.T) {
	a := StructType(Field{"a", Int}, Field{"b", String})
	b := StructType(Field{"b", String}, Field{"a", Int})
	if a.Equal(b) {
		t.Error("struct types with reordered fields must not be equal")
	}
}
