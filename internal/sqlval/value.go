package sqlval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a typed SQL value in 64 bytes. Its layout is private to the
// package: build values with the constructors below and read them
// through the accessors.
//
// Representation:
//   - kind, prec, scale, length and nest are the value's Type, with the
//     type word flattened so that null and dscale fit beside it;
//   - word holds BOOLEAN (0 or 1), TINYINT..BIGINT, DATE (days since
//     1970-01-01, proleptic Gregorian), TIMESTAMP (microseconds since
//     1970-01-01T00:00:00, no zone), FLOAT/DOUBLE (IEEE bits) and the
//     DECIMAL unscaled integer;
//   - dscale is the DECIMAL payload's own scale, which in a decoded
//     file may differ from the type's;
//   - s holds STRING/CHAR/VARCHAR text and BINARY bytes;
//   - elems holds ARRAY items, STRUCT field values parallel to the
//     type's fields, and MAP entries interleaved as k0,v0,k1,v1,….
type Value struct {
	kind   Kind
	prec   uint8
	scale  uint8
	null   bool
	dscale uint8
	length uint16
	nest   *nested
	word   uint64
	s      string
	elems  []Value
}

// of returns the non-null zero value of type t.
func of(t Type) Value {
	return Value{kind: t.Kind, prec: t.prec, scale: t.scale, length: t.length, nest: t.nest}
}

// NullOf returns the NULL value of the given type.
func NullOf(t Type) Value {
	v := of(t)
	v.null = true
	return v
}

// BoolVal returns a BOOLEAN value.
func BoolVal(b bool) Value {
	v := of(Boolean)
	if b {
		v.word = 1
	}
	return v
}

// IntVal returns a value of the given integral kind. The caller is
// responsible for range checking; use Cast for checked conversion.
func IntVal(t Type, i int64) Value {
	v := of(t)
	v.word = uint64(i)
	return v
}

// FloatVal returns a FLOAT value (stored as float64, rounded to float32
// precision to model the narrower type).
func FloatVal(f float64) Value {
	v := of(Float)
	v.word = math.Float64bits(float64(float32(f)))
	return v
}

// DoubleVal returns a DOUBLE value.
func DoubleVal(f float64) Value {
	v := of(Double)
	v.word = math.Float64bits(f)
	return v
}

// DecimalVal returns a value of the DECIMAL type t holding d at d's own
// scale, which need not be t's: a decoder keeps the scale its file
// recorded. Use Cast to coerce d into t. It panics when d's scale is
// outside [0, maxTypePrecision].
func DecimalVal(t Type, d Decimal) Value {
	if d.Scale < 0 || d.Scale > maxTypePrecision {
		panic(fmt.Sprintf("sqlval: decimal scale %d out of range", d.Scale))
	}
	v := of(t)
	v.word = uint64(d.Unscaled)
	v.dscale = uint8(d.Scale)
	return v
}

// StringVal returns a STRING value.
func StringVal(s string) Value { return textVal(String, s) }

// CharVal returns a CHAR(n) value without padding or truncation.
func CharVal(s string, n int) Value { return textVal(CharType(n), s) }

// VarcharVal returns a VARCHAR(n) value without truncation.
func VarcharVal(s string, n int) Value { return textVal(VarcharType(n), s) }

// BinaryVal returns a BINARY value holding a copy of b.
func BinaryVal(b []byte) Value { return textVal(Binary, string(b)) }

func textVal(t Type, s string) Value {
	v := of(t)
	v.s = s
	return v
}

// DateVal returns a DATE value from days since the Unix epoch.
func DateVal(days int64) Value { return IntVal(Date, days) }

// TimestampVal returns a TIMESTAMP value from microseconds since epoch.
func TimestampVal(micros int64) Value { return IntVal(Timestamp, micros) }

// ArrayVal returns a value of the ARRAY type t holding items.
func ArrayVal(t Type, items ...Value) Value { return nestedVal(t, items) }

// MapVal returns a value of the MAP type t whose entries are
// interleaved as key0, value0, key1, value1, ….
func MapVal(t Type, entries ...Value) Value {
	if len(entries)%2 != 0 {
		panic("sqlval: MapVal needs a value for every key")
	}
	return nestedVal(t, entries)
}

// StructVal returns a STRUCT value whose field values parallel t.Fields.
func StructVal(t Type, fieldVals ...Value) Value { return nestedVal(t, fieldVals) }

func nestedVal(t Type, elems []Value) Value {
	v := of(t)
	v.elems = elems
	return v
}

// Type returns the value's type.
func (v Value) Type() Type {
	return Type{Kind: v.kind, prec: v.prec, scale: v.scale, length: v.length, nest: v.nest}
}

// Kind returns the kind of the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// Bool returns a BOOLEAN value's payload, false for any other kind.
func (v Value) Bool() bool { return v.kind == KindBoolean && v.word != 0 }

// Int returns the payload of an integral, DATE (days) or TIMESTAMP
// (microseconds) value, 0 for any other kind.
func (v Value) Int() int64 {
	switch v.kind {
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt, KindDate, KindTimestamp:
		return int64(v.word)
	}
	return 0
}

// Float returns a FLOAT or DOUBLE value's payload, 0 for any other kind.
func (v Value) Float() float64 {
	if v.kind == KindFloat || v.kind == KindDouble {
		return math.Float64frombits(v.word)
	}
	return 0
}

// Dec returns a DECIMAL value's payload at its own scale, the zero
// Decimal for any other kind.
func (v Value) Dec() Decimal {
	if v.kind != KindDecimal {
		return Decimal{}
	}
	return Decimal{Unscaled: int64(v.word), Scale: int(v.dscale)}
}

// Str returns the text of a STRING, CHAR or VARCHAR value or the bytes
// of a BINARY one, and "" for any other kind.
func (v Value) Str() string { return v.s }

// Bytes returns a copy of a BINARY value's bytes, nil for any other
// kind.
func (v Value) Bytes() []byte {
	if v.kind != KindBinary {
		return nil
	}
	return []byte(v.s)
}

// Elems returns an ARRAY value's items or a STRUCT value's field
// values, nil for any other kind (a MAP reads through Len, Key and Val).
// The slice is the value's own: a caller that changes it changes the
// value and every copy of it, so Clone first.
func (v Value) Elems() []Value {
	if v.kind == KindMap {
		return nil
	}
	return v.elems
}

// Len returns the number of entries of a MAP value, 0 for any other
// kind.
func (v Value) Len() int {
	if v.kind != KindMap {
		return 0
	}
	return len(v.elems) / 2
}

// Key returns the key of a MAP value's i-th entry.
func (v Value) Key(i int) Value { return v.elems[2*i] }

// Val returns the value of a MAP value's i-th entry.
func (v Value) Val(i int) Value { return v.elems[2*i+1] }

// IsNaN reports whether a floating value is NaN.
func (v Value) IsNaN() bool {
	return (v.kind == KindFloat || v.kind == KindDouble) && math.IsNaN(v.Float())
}

// String renders the value for logs and differential comparison. NULL
// renders as "NULL"; strings are quoted; nested values render in Hive's
// display syntax.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.kind {
	case KindBoolean:
		if v.Bool() {
			return "true"
		}
		return "false"
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat, KindDouble:
		f := v.Float()
		if math.IsNaN(f) {
			return "NaN"
		}
		if math.IsInf(f, 1) {
			return "Infinity"
		}
		if math.IsInf(f, -1) {
			return "-Infinity"
		}
		return fmt.Sprintf("%g", f)
	case KindDecimal:
		return v.Dec().String()
	case KindString, KindChar, KindVarchar:
		return strconv.Quote(v.s)
	case KindBinary:
		return fmt.Sprintf("X'%X'", v.s)
	case KindDate:
		return FormatDate(v.Int())
	case KindTimestamp:
		return FormatTimestamp(v.Int())
	case KindArray:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.elems {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	case KindMap:
		var b strings.Builder
		b.WriteByte('{')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.Key(i).String())
			b.WriteByte(':')
			b.WriteString(v.Val(i).String())
		}
		b.WriteByte('}')
		return b.String()
	case KindStruct:
		var b strings.Builder
		b.WriteByte('{')
		for i, f := range v.Type().Fields() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			if i < len(v.elems) {
				b.WriteString(v.elems[i].String())
			}
		}
		b.WriteByte('}')
		return b.String()
	default:
		return "NULL"
	}
}

// Equal reports deep value equality, requiring equal types. Two NULLs of
// the same type are equal; NaN equals NaN (so differential comparison
// does not flag NaN round-trips).
func (v Value) Equal(o Value) bool {
	if !v.Type().Equal(o.Type()) {
		return false
	}
	return v.EqualData(o)
}

// EqualData reports payload equality ignoring declared type parameters
// (so an INT 5 equals a BIGINT 5 only if kinds match, but DECIMAL values
// compare numerically and character values compare by content). It is
// the comparison used by the write-read oracle, which tolerates type
// re-declaration but not data change.
func (v Value) EqualData(o Value) bool {
	if v.null || o.null {
		return v.null == o.null
	}
	a, b := v.Type(), o.Type()
	if a.IsCharacter() && b.IsCharacter() {
		return v.s == o.s
	}
	if a.IsIntegral() && b.IsIntegral() {
		return v.word == o.word
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindBoolean, KindDate, KindTimestamp:
		return v.word == o.word
	case KindFloat, KindDouble:
		fv, fo := v.Float(), o.Float()
		if math.IsNaN(fv) && math.IsNaN(fo) {
			return true
		}
		return fv == fo
	case KindDecimal:
		return v.Dec().Cmp(o.Dec()) == 0
	case KindBinary:
		return v.s == o.s
	case KindArray, KindMap, KindStruct:
		if len(v.elems) != len(o.elems) {
			return false
		}
		for i := range v.elems {
			if !v.elems[i].EqualData(o.elems[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Clone returns a deep copy of the value; mutating the copy never
// affects the original. The type and the string payload are immutable
// and shared.
func (v Value) Clone() Value {
	out := v
	out.elems = mapElems(v.elems, Value.Clone)
	return out
}

// mapElems returns f applied to each member of in, keeping nil as nil.
func mapElems(in []Value, f func(Value) Value) []Value {
	if in == nil {
		return nil
	}
	out := make([]Value, len(in))
	for i := range in {
		out[i] = f(in[i])
	}
	return out
}

// Row is an ordered tuple of values.
type Row []Value

// Clone deep-copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i := range r {
		out[i] = r[i].Clone()
	}
	return out
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports element-wise EqualData across two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].EqualData(o[i]) {
			return false
		}
	}
	return true
}
