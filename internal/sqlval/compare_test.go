package sqlval

import "testing"

func cmp(t *testing.T, a, b Value) int {
	t.Helper()
	c, err := Compare(a, b)
	if err != nil {
		t.Fatalf("Compare(%v, %v): %v", a, b, err)
	}
	return c
}

func TestCompareNumericFamilies(t *testing.T) {
	if cmp(t, IntVal(TinyInt, 5), IntVal(BigInt, 7)) != -1 {
		t.Error("cross-kind integral compare")
	}
	if cmp(t, IntVal(Int, 5), DoubleVal(4.5)) != 1 {
		t.Error("int vs double")
	}
	d1, _ := ParseDecimal("1.50")
	d2, _ := ParseDecimal("1.5")
	if cmp(t, DecimalVal(DecimalType(5, d1.Scale), d1), DecimalVal(DecimalType(5, d2.Scale), d2)) != 0 {
		t.Error("decimal scale-insensitive equality")
	}
	if cmp(t, DecimalVal(DecimalType(5, d1.Scale), d1), DoubleVal(2.0)) != -1 {
		t.Error("decimal vs double")
	}
	if cmp(t, FloatVal(1.5), FloatVal(1.5)) != 0 {
		t.Error("float equality")
	}
}

func TestCompareCharacterAndBoolean(t *testing.T) {
	if cmp(t, StringVal("a"), VarcharVal("b", 4)) != -1 {
		t.Error("character compare")
	}
	if cmp(t, BoolVal(false), BoolVal(true)) != -1 {
		t.Error("bool ordering")
	}
	if cmp(t, BoolVal(true), BoolVal(true)) != 0 {
		t.Error("bool equality")
	}
	if cmp(t, BoolVal(true), BoolVal(false)) != 1 {
		t.Error("bool ordering reversed")
	}
}

func TestCompareBinaryAndTemporal(t *testing.T) {
	if cmp(t, BinaryVal([]byte{1}), BinaryVal([]byte{2})) != -1 {
		t.Error("binary compare")
	}
	if cmp(t, DateVal(10), DateVal(20)) != -1 {
		t.Error("date compare")
	}
	if cmp(t, TimestampVal(100), TimestampVal(100)) != 0 {
		t.Error("timestamp equality")
	}
}

func TestCompareNulls(t *testing.T) {
	if cmp(t, NullOf(Int), NullOf(Int)) != 0 {
		t.Error("null == null")
	}
	if cmp(t, NullOf(Int), IntVal(Int, 0)) != -1 {
		t.Error("null sorts first")
	}
	if cmp(t, IntVal(Int, 0), NullOf(Int)) != 1 {
		t.Error("null sorts first reversed")
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, err := Compare(IntVal(Int, 1), StringVal("x")); err == nil {
		t.Error("int vs string should error")
	}
	if _, err := Compare(ArrayVal(ArrayType(Int)), ArrayVal(ArrayType(Int))); err == nil {
		t.Error("arrays should not compare")
	}
	if _, err := Compare(DateVal(0), TimestampVal(0)); err == nil {
		t.Error("date vs timestamp should error")
	}
}

func TestTransformLeavesNested(t *testing.T) {
	inner := StructVal(StructType(Field{"d", Date}), DateVal(100))
	arr := ArrayVal(ArrayType(inner.Type()), inner)
	m := MapVal(MapType(String, arr.Type()), StringVal("k"), arr)
	out := TransformLeaves(m, RebaseDates(func(d int64) int64 { return d + 1 }))
	got := out.Val(0).Elems()[0].Elems()[0].Int()
	if got != 101 {
		t.Errorf("nested rebase = %d", got)
	}
	// Original untouched.
	if m.Val(0).Elems()[0].Elems()[0].Int() != 100 {
		t.Error("TransformLeaves mutated the input")
	}
	// Nulls pass through.
	n := TransformLeaves(NullOf(Date), RebaseDates(func(int64) int64 { return 0 }))
	if !n.IsNull() {
		t.Error("null should pass through")
	}
}

func TestShiftTimestamps(t *testing.T) {
	v := TransformLeaves(TimestampVal(1000), ShiftTimestamps(500))
	if v.Int() != 1500 {
		t.Errorf("shift = %d", v.Int())
	}
	// Non-timestamp leaves untouched.
	v = TransformLeaves(IntVal(Int, 7), ShiftTimestamps(500))
	if v.Int() != 7 {
		t.Errorf("int = %d", v.Int())
	}
}

func TestValueStringRenderings(t *testing.T) {
	d, _ := ParseDecimal("1.50")
	cases := map[string]Value{
		"NULL":                NullOf(Int),
		"true":                BoolVal(true),
		"-7":                  IntVal(Int, -7),
		"NaN":                 DoubleVal(nanValue()),
		"Infinity":            DoubleVal(inf(1)),
		"-Infinity":           DoubleVal(inf(-1)),
		"1.50":                DecimalVal(DecimalType(5, d.Scale), d),
		`"hi"`:                StringVal("hi"),
		"X'0102'":             BinaryVal([]byte{1, 2}),
		"1970-01-01":          DateVal(0),
		"1970-01-01 00:00:00": TimestampVal(0),
		"[1,2]":               ArrayVal(ArrayType(Int), IntVal(Int, 1), IntVal(Int, 2)),
		`{"k":1}`:             MapVal(MapType(String, Int), StringVal("k"), IntVal(Int, 1)),
		"{x:1}":               StructVal(StructType(Field{"x", Int}), IntVal(Int, 1)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v kind %v) = %q, want %q", v, v.Kind(), got, want)
		}
	}
}

func inf(sign int) float64 {
	v := 1.0
	if sign < 0 {
		v = -1.0
	}
	return v / 0.0001e-300 * 1e300 // overflow to ±Inf
}

func TestValueEqualStrictType(t *testing.T) {
	if IntVal(Int, 5).Equal(IntVal(BigInt, 5)) {
		t.Error("Equal requires equal types")
	}
	if !IntVal(Int, 5).Equal(IntVal(Int, 5)) {
		t.Error("Equal on identical values")
	}
	a := ArrayVal(ArrayType(Int), IntVal(Int, 1))
	b := ArrayVal(ArrayType(Int), IntVal(Int, 2))
	if a.Equal(b) {
		t.Error("array data inequality")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should be equal")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{IntVal(Int, 1), StringVal("x")}
	if r.String() != `(1, "x")` {
		t.Errorf("row string = %q", r.String())
	}
	if !r.Equal(r.Clone()) {
		t.Error("row clone equality")
	}
	if r.Equal(Row{IntVal(Int, 1)}) {
		t.Error("length mismatch")
	}
	cp := r.Clone()
	cp[0] = IntVal(Int, 99)
	if r[0].Int() != 1 {
		t.Error("row clone shares storage")
	}
}

func TestCastModeString(t *testing.T) {
	if CastANSI.String() != "ansi" || CastLegacy.String() != "legacy" || CastHive.String() != "hive" {
		t.Error("mode names")
	}
}

func TestCastToBinaryAndTimestamp(t *testing.T) {
	v, err := Cast(StringVal("abc"), Binary, CastANSI)
	if err != nil || string(v.Bytes()) != "abc" {
		t.Errorf("string->binary = %v, %v", v, err)
	}
	if _, err := Cast(IntVal(Int, 1), Binary, CastANSI); err == nil {
		t.Error("int->binary should error under ANSI")
	}
	ts, err := Cast(StringVal("2021-06-15 10:30:00"), Timestamp, CastANSI)
	if err != nil || FormatTimestamp(ts.Int()) != "2021-06-15 10:30:00" {
		t.Errorf("string->timestamp = %v, %v", ts, err)
	}
	d, err := Cast(ts, Date, CastANSI)
	if err != nil || FormatDate(d.Int()) != "2021-06-15" {
		t.Errorf("timestamp->date = %v, %v", d, err)
	}
	back, err := Cast(d, Timestamp, CastANSI)
	if err != nil || FormatTimestamp(back.Int()) != "2021-06-15 00:00:00" {
		t.Errorf("date->timestamp = %v, %v", back, err)
	}
	sec, err := Cast(ts, BigInt, CastANSI)
	if err != nil || sec.Int() != ts.Int()/MicrosPerSecond {
		t.Errorf("timestamp->bigint = %v, %v", sec, err)
	}
}

func TestCastBooleanNumericForms(t *testing.T) {
	v, _ := Cast(IntVal(Int, 2), Boolean, CastANSI)
	if !v.Bool() {
		t.Error("nonzero int is true")
	}
	v, _ = Cast(BoolVal(true), Int, CastANSI)
	if v.Int() != 1 {
		t.Error("true -> 1")
	}
	v, _ = Cast(BoolVal(false), Double, CastANSI)
	if v.Float() != 0 {
		t.Error("false -> 0.0")
	}
	v, _ = Cast(StringVal(" F "), Boolean, CastANSI)
	if v.Bool() {
		t.Error("'F' -> false")
	}
}
