package sqlval

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustCast(t *testing.T, v Value, to Type, mode CastMode) Value {
	t.Helper()
	out, err := Cast(v, to, mode)
	if err != nil {
		t.Fatalf("Cast(%v, %v, %v): %v", v, to, mode, err)
	}
	return out
}

func castCode(err error) string {
	var ce *CastError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return ""
}

func TestCastNullPropagates(t *testing.T) {
	for _, to := range []Type{Int, String, DecimalType(5, 2), ArrayType(Int)} {
		out := mustCast(t, NullOf(String), to, CastANSI)
		if !out.IsNull() || !out.Type().Equal(to) {
			t.Errorf("NULL cast to %v = %v", to, out)
		}
	}
}

func TestCastIntegralWidening(t *testing.T) {
	v := mustCast(t, IntVal(TinyInt, 42), BigInt, CastANSI)
	if v.Int() != 42 || v.Kind() != KindBigInt {
		t.Errorf("widening = %v", v)
	}
}

func TestCastIntegralOverflowModes(t *testing.T) {
	big := IntVal(BigInt, 3000000000) // exceeds INT
	_, err := Cast(big, Int, CastANSI)
	if castCode(err) != "CAST_OVERFLOW" {
		t.Errorf("ANSI overflow err = %v", err)
	}
	wrapped := uint32(3000000000)
	v := mustCast(t, big, Int, CastLegacy)
	if v.IsNull() || v.Int() != int64(int32(wrapped)) {
		t.Errorf("legacy wrap = %v", v)
	}
	v = mustCast(t, big, Int, CastHive)
	if !v.IsNull() {
		t.Errorf("hive overflow should be NULL, got %v", v)
	}
}

func TestCastTinyIntOverflow(t *testing.T) {
	v200 := IntVal(Int, 200)
	if _, err := Cast(v200, TinyInt, CastANSI); castCode(err) != "CAST_OVERFLOW" {
		t.Error("ANSI should reject 200 -> TINYINT")
	}
	wrapped := uint8(200)
	leg := mustCast(t, v200, TinyInt, CastLegacy)
	if leg.Int() != int64(int8(wrapped)) {
		t.Errorf("legacy 200 -> TINYINT = %d", leg.Int())
	}
	hv := mustCast(t, v200, TinyInt, CastHive)
	if !hv.IsNull() {
		t.Error("hive 200 -> TINYINT should be NULL")
	}
}

func TestCastStringToNumber(t *testing.T) {
	v := mustCast(t, StringVal("123"), Int, CastANSI)
	if v.Int() != 123 {
		t.Errorf("got %v", v)
	}
	v = mustCast(t, StringVal("3.0"), Int, CastANSI)
	if v.Int() != 3 {
		t.Errorf("string decimal to int = %v", v)
	}
	_, err := Cast(StringVal("abc"), Int, CastANSI)
	if castCode(err) != "CAST_INVALID_INPUT" {
		t.Errorf("err = %v", err)
	}
	if v := mustCast(t, StringVal("abc"), Int, CastHive); !v.IsNull() {
		t.Error("hive invalid string should be NULL")
	}
}

func TestCastNaNInfinityStrings(t *testing.T) {
	// SPARK-40525 model: ANSI rejects the IEEE spellings, legacy accepts.
	for _, s := range []string{"NaN", "Infinity", "-Infinity"} {
		if _, err := Cast(StringVal(s), Float, CastANSI); castCode(err) != "CAST_INVALID_INPUT" {
			t.Errorf("ANSI %q: err = %v", s, err)
		}
		v := mustCast(t, StringVal(s), Float, CastLegacy)
		if v.IsNull() {
			t.Errorf("legacy %q should produce a value", s)
		}
	}
	v := mustCast(t, StringVal("NaN"), Double, CastLegacy)
	if !v.IsNaN() {
		t.Errorf("legacy NaN = %v", v)
	}
}

func TestCastDecimalPrecision(t *testing.T) {
	d, _ := ParseDecimal("1.23456")
	// SPARK-40439 model: excess precision errors under ANSI, NULL in Hive.
	_, err := Cast(DecimalVal(DecimalType(10, d.Scale), d), DecimalType(5, 2), CastANSI)
	if castCode(err) != "CAST_OVERFLOW" {
		t.Errorf("ANSI decimal err = %v", err)
	}
	v := mustCast(t, DecimalVal(DecimalType(10, d.Scale), d), DecimalType(5, 2), CastHive)
	if !v.IsNull() {
		t.Error("hive decimal excess precision should be NULL")
	}
	ok, _ := ParseDecimal("1.23")
	v = mustCast(t, DecimalVal(DecimalType(10, ok.Scale), ok), DecimalType(5, 2), CastANSI)
	if v.Dec().String() != "1.23" {
		t.Errorf("exact decimal = %v", v)
	}
	// Overflowing the integral digits.
	huge, _ := ParseDecimal("123456.78")
	if _, err := Cast(DecimalVal(DecimalType(10, huge.Scale), huge), DecimalType(5, 2), CastANSI); castCode(err) != "CAST_OVERFLOW" {
		t.Errorf("integral overflow err = %v", err)
	}
}

func TestCastCharPaddingAndLength(t *testing.T) {
	v := mustCast(t, StringVal("ab"), CharType(4), CastANSI)
	if v.Str() != "ab  " {
		t.Errorf("CHAR pad = %q", v.Str())
	}
	_, err := Cast(StringVal("abcde"), CharType(4), CastANSI)
	if castCode(err) != "EXCEED_CHAR_LENGTH" {
		t.Errorf("err = %v", err)
	}
	v = mustCast(t, StringVal("abcde"), CharType(4), CastLegacy)
	if v.Str() != "abcd" {
		t.Errorf("legacy CHAR truncate = %q", v.Str())
	}
	// Trailing spaces beyond the length are not an error.
	v = mustCast(t, StringVal("abcd   "), CharType(4), CastANSI)
	if v.Str() != "abcd" {
		t.Errorf("trailing-space CHAR = %q", v.Str())
	}
}

func TestCastVarcharLength(t *testing.T) {
	v := mustCast(t, StringVal("ab"), VarcharType(4), CastANSI)
	if v.Str() != "ab" {
		t.Errorf("VARCHAR keeps content = %q", v.Str())
	}
	_, err := Cast(StringVal("abcdef"), VarcharType(4), CastANSI)
	if castCode(err) != "EXCEED_VARCHAR_LENGTH" {
		t.Errorf("err = %v", err)
	}
	v = mustCast(t, StringVal("abcdef"), VarcharType(4), CastHive)
	if v.Str() != "abcd" {
		t.Errorf("hive VARCHAR truncate = %q", v.Str())
	}
}

func TestCastBooleanStrings(t *testing.T) {
	v := mustCast(t, StringVal("true"), Boolean, CastANSI)
	if !v.Bool() {
		t.Error("true not parsed")
	}
	// SPARK-40630 model: 'yes' is invalid; lenient modes yield NULL
	// silently.
	if _, err := Cast(StringVal("yes"), Boolean, CastANSI); castCode(err) != "CAST_INVALID_INPUT" {
		t.Errorf("ANSI 'yes' err = %v", err)
	}
	v = mustCast(t, StringVal("yes"), Boolean, CastLegacy)
	if !v.IsNull() {
		t.Error("legacy 'yes' should be NULL")
	}
}

func TestCastDates(t *testing.T) {
	v := mustCast(t, StringVal("2021-06-15"), Date, CastANSI)
	if FormatDate(v.Int()) != "2021-06-15" {
		t.Errorf("date = %v", v)
	}
	// SPARK-40629 model: invalid date errors under ANSI, NULL otherwise.
	if _, err := Cast(StringVal("2021-02-30"), Date, CastANSI); castCode(err) != "CAST_INVALID_INPUT" {
		t.Errorf("invalid date err = %v", err)
	}
	v = mustCast(t, StringVal("2021-02-30"), Date, CastLegacy)
	if !v.IsNull() {
		t.Error("legacy invalid date should be NULL")
	}
	// Date <-> timestamp.
	ts := mustCast(t, v, Timestamp, CastANSI)
	if !ts.IsNull() {
		t.Error("NULL date to timestamp should stay NULL")
	}
	d := mustCast(t, StringVal("2021-06-15"), Date, CastANSI)
	ts = mustCast(t, d, Timestamp, CastANSI)
	back := mustCast(t, ts, Date, CastANSI)
	if back.Int() != d.Int() {
		t.Errorf("date->ts->date = %d, want %d", back.Int(), d.Int())
	}
}

func TestCastNested(t *testing.T) {
	arr := ArrayVal(ArrayType(Int), IntVal(Int, 1), IntVal(Int, 2))
	out := mustCast(t, arr, ArrayType(BigInt), CastANSI)
	if out.Elems()[0].Kind() != KindBigInt || out.Elems()[1].Int() != 2 {
		t.Errorf("array cast = %v", out)
	}
	m := MapVal(MapType(String, Int), StringVal("a"), IntVal(Int, 1))
	outM := mustCast(t, m, MapType(String, Double), CastANSI)
	if outM.Val(0).Float() != 1.0 {
		t.Errorf("map cast = %v", outM)
	}
	st := StructVal(StructType(Field{"x", Int}), IntVal(Int, 7))
	outS := mustCast(t, st, StructType(Field{"x", BigInt}), CastANSI)
	if outS.Elems()[0].Int() != 7 {
		t.Errorf("struct cast = %v", outS)
	}
	// Element failure propagates under ANSI.
	bad := ArrayVal(ArrayType(BigInt), IntVal(BigInt, 3000000000))
	if _, err := Cast(bad, ArrayType(Int), CastANSI); err == nil {
		t.Error("nested overflow should error under ANSI")
	}
}

func TestCastToString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(Int, 42), "42"},
		{BoolVal(true), "true"},
		{StringVal("hi"), "hi"},
		{DateVal(0), "1970-01-01"},
	}
	for _, c := range cases {
		got := mustCast(t, c.v, String, CastANSI)
		if got.Str() != c.want {
			t.Errorf("%v to string = %q, want %q", c.v, got.Str(), c.want)
		}
	}
}

func TestCastErrorMessageMentionsCode(t *testing.T) {
	_, err := Cast(StringVal("abc"), Int, CastANSI)
	if err == nil || !strings.Contains(err.Error(), "CAST_INVALID_INPUT") {
		t.Errorf("err = %v", err)
	}
}

func TestCastIntegralRoundTripProperty(t *testing.T) {
	// Any in-range int round-trips through STRING under every mode.
	f := func(n int32, modeSel uint8) bool {
		mode := CastMode(modeSel % 3)
		v := IntVal(Int, int64(n))
		s, err := Cast(v, String, mode)
		if err != nil {
			return false
		}
		back, err := Cast(s, Int, mode)
		return err == nil && !back.IsNull() && back.Int() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCastHiveNeverErrors(t *testing.T) {
	// Hive-mode casts never surface errors; failures become NULL.
	f := func(s string) bool {
		for _, to := range []Type{Int, Double, Date, Boolean, DecimalType(5, 2)} {
			if _, err := Cast(StringVal(s), to, CastHive); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueEqualData(t *testing.T) {
	if !IntVal(Int, 5).EqualData(IntVal(BigInt, 5)) {
		t.Error("integral cross-kind data equality")
	}
	if !StringVal("x").EqualData(VarcharVal("x", 10)) {
		t.Error("character cross-kind data equality")
	}
	if IntVal(Int, 5).EqualData(StringVal("5")) {
		t.Error("int should not equal string")
	}
	if !DoubleVal(0).EqualData(DoubleVal(0)) {
		t.Error("double equality")
	}
	nan := DoubleVal(nanValue())
	if !nan.EqualData(nan) {
		t.Error("NaN should equal NaN for oracle purposes")
	}
	if !NullOf(Int).EqualData(NullOf(Int)) {
		t.Error("NULL equals NULL")
	}
	if NullOf(Int).EqualData(IntVal(Int, 0)) {
		t.Error("NULL != 0")
	}
}

func nanValue() float64 {
	v := 0.0
	return v / v
}

func TestValueCloneIsDeep(t *testing.T) {
	arr := ArrayVal(ArrayType(Int), IntVal(Int, 1))
	cp := arr.Clone()
	cp.Elems()[0] = IntVal(Int, 99)
	if arr.Elems()[0].Int() != 1 {
		t.Error("clone shares list storage")
	}
	raw := []byte{1, 2}
	b := BinaryVal(raw)
	raw[0] = 9
	b.Bytes()[1] = 9
	if b.String() != "X'0102'" {
		t.Errorf("binary value shares byte storage: %v", b)
	}
}
