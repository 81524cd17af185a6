package sqlval

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a typed SQL value. Exactly one payload field is meaningful,
// selected by Type.Kind; Null values carry only their type.
//
// Representation:
//   - BOOLEAN: B
//   - TINYINT..BIGINT: I
//   - FLOAT/DOUBLE: F
//   - DECIMAL: D
//   - STRING/CHAR/VARCHAR: S
//   - BINARY: Bytes
//   - DATE: I (days since 1970-01-01, proleptic Gregorian)
//   - TIMESTAMP: I (microseconds since 1970-01-01T00:00:00, no zone)
//   - ARRAY: List
//   - MAP: Keys/Vals parallel slices in insertion order
//   - STRUCT: FieldVals parallel to Type.Fields
type Value struct {
	Type Type
	Null bool

	B     bool
	I     int64
	F     float64
	D     Decimal
	S     string
	Bytes []byte

	List      []Value
	Keys      []Value
	Vals      []Value
	FieldVals []Value
}

// NullOf returns the NULL value of the given type.
func NullOf(t Type) Value { return Value{Type: t, Null: true} }

// BoolVal returns a BOOLEAN value.
func BoolVal(b bool) Value { return Value{Type: Boolean, B: b} }

// IntVal returns a value of the given integral kind. The caller is
// responsible for range checking; use Cast for checked conversion.
func IntVal(t Type, v int64) Value { return Value{Type: t, I: v} }

// FloatVal returns a FLOAT value (stored as float64, rounded to float32
// precision to model the narrower type).
func FloatVal(f float64) Value {
	return Value{Type: Float, F: float64(float32(f))}
}

// DoubleVal returns a DOUBLE value.
func DoubleVal(f float64) Value { return Value{Type: Double, F: f} }

// DecimalVal returns a DECIMAL(p,s) value. The decimal is stored as-is;
// use Cast to coerce into a declared precision/scale.
func DecimalVal(d Decimal, precision int) Value {
	return Value{Type: DecimalType(precision, d.Scale), D: d}
}

// StringVal returns a STRING value.
func StringVal(s string) Value { return Value{Type: String, S: s} }

// CharVal returns a CHAR(n) value without padding or truncation.
func CharVal(s string, n int) Value { return Value{Type: CharType(n), S: s} }

// VarcharVal returns a VARCHAR(n) value without truncation.
func VarcharVal(s string, n int) Value { return Value{Type: VarcharType(n), S: s} }

// BinaryVal returns a BINARY value.
func BinaryVal(b []byte) Value { return Value{Type: Binary, Bytes: b} }

// DateVal returns a DATE value from days since the Unix epoch.
func DateVal(days int64) Value { return Value{Type: Date, I: days} }

// TimestampVal returns a TIMESTAMP value from microseconds since epoch.
func TimestampVal(micros int64) Value { return Value{Type: Timestamp, I: micros} }

// ArrayVal returns an ARRAY<elem> value.
func ArrayVal(elem Type, items ...Value) Value {
	return Value{Type: ArrayType(elem), List: items}
}

// MapVal returns a MAP<k,v> value with parallel key/value slices.
func MapVal(key, val Type, keys, vals []Value) Value {
	return Value{Type: MapType(key, val), Keys: keys, Vals: vals}
}

// StructVal returns a STRUCT value whose field values parallel t.Fields.
func StructVal(t Type, fieldVals ...Value) Value {
	return Value{Type: t, FieldVals: fieldVals}
}

// IsNaN reports whether a floating value is NaN.
func (v Value) IsNaN() bool {
	return (v.Type.Kind == KindFloat || v.Type.Kind == KindDouble) && math.IsNaN(v.F)
}

// String renders the value for logs and differential comparison. NULL
// renders as "NULL"; strings are quoted; nested values render in Hive's
// display syntax.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type.Kind {
	case KindBoolean:
		if v.B {
			return "true"
		}
		return "false"
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat, KindDouble:
		if math.IsNaN(v.F) {
			return "NaN"
		}
		if math.IsInf(v.F, 1) {
			return "Infinity"
		}
		if math.IsInf(v.F, -1) {
			return "-Infinity"
		}
		return fmt.Sprintf("%g", v.F)
	case KindDecimal:
		return v.D.String()
	case KindString, KindChar, KindVarchar:
		return fmt.Sprintf("%q", v.S)
	case KindBinary:
		return fmt.Sprintf("X'%X'", v.Bytes)
	case KindDate:
		return FormatDate(v.I)
	case KindTimestamp:
		return FormatTimestamp(v.I)
	case KindArray:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.List {
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
		for i := range v.Keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.Keys[i].String())
			b.WriteByte(':')
			b.WriteString(v.Vals[i].String())
		}
		b.WriteByte('}')
		return b.String()
	case KindStruct:
		var b strings.Builder
		b.WriteByte('{')
		for i, f := range v.Type.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			if i < len(v.FieldVals) {
				b.WriteString(v.FieldVals[i].String())
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
	if !v.Type.Equal(o.Type) {
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
	if v.Null || o.Null {
		return v.Null == o.Null
	}
	a, b := v.Type.Kind, o.Type.Kind
	if v.Type.IsCharacter() && o.Type.IsCharacter() {
		return v.S == o.S
	}
	if v.Type.IsIntegral() && o.Type.IsIntegral() {
		return v.I == o.I
	}
	if a != b {
		return false
	}
	switch a {
	case KindBoolean:
		return v.B == o.B
	case KindFloat, KindDouble:
		if math.IsNaN(v.F) && math.IsNaN(o.F) {
			return true
		}
		return v.F == o.F
	case KindDecimal:
		return v.D.Cmp(o.D) == 0
	case KindBinary:
		return bytes.Equal(v.Bytes, o.Bytes)
	case KindDate, KindTimestamp:
		return v.I == o.I
	case KindArray:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].EqualData(o.List[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.Keys) != len(o.Keys) {
			return false
		}
		for i := range v.Keys {
			if !v.Keys[i].EqualData(o.Keys[i]) || !v.Vals[i].EqualData(o.Vals[i]) {
				return false
			}
		}
		return true
	case KindStruct:
		if len(v.FieldVals) != len(o.FieldVals) {
			return false
		}
		for i := range v.FieldVals {
			if !v.FieldVals[i].EqualData(o.FieldVals[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Clone returns a deep copy of the value; mutating the copy never
// affects the original.
func (v Value) Clone() Value {
	out := v
	if v.Bytes != nil {
		out.Bytes = append([]byte(nil), v.Bytes...)
	}
	out.List = cloneSlice(v.List)
	out.Keys = cloneSlice(v.Keys)
	out.Vals = cloneSlice(v.Vals)
	out.FieldVals = cloneSlice(v.FieldVals)
	return out
}

func cloneSlice(in []Value) []Value {
	if in == nil {
		return nil
	}
	out := make([]Value, len(in))
	for i := range in {
		out[i] = in[i].Clone()
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
