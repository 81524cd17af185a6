// Package sqlval implements the SQL value and type system shared by the
// simulated Spark and Hive engines and the serialization formats.
//
// The type lattice covers the types exercised by the paper's §8 case
// study: the integral family (TINYINT through BIGINT), floating point,
// DECIMAL(p,s), the character family (STRING, CHAR(n), VARCHAR(n)),
// BINARY, DATE, TIMESTAMP, BOOLEAN, and the nested types ARRAY, MAP and
// STRUCT. Per-dialect coercion rules live in cast.go.
package sqlval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the primitive and nested type constructors.
type Kind uint8

// The supported kinds, ordered roughly by the widening lattice.
const (
	KindNull Kind = iota
	KindBoolean
	KindTinyInt
	KindSmallInt
	KindInt
	KindBigInt
	KindFloat
	KindDouble
	KindDecimal
	KindString
	KindChar
	KindVarchar
	KindBinary
	KindDate
	KindTimestamp
	KindArray
	KindMap
	KindStruct
)

// String returns the SQL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBoolean:
		return "BOOLEAN"
	case KindTinyInt:
		return "TINYINT"
	case KindSmallInt:
		return "SMALLINT"
	case KindInt:
		return "INT"
	case KindBigInt:
		return "BIGINT"
	case KindFloat:
		return "FLOAT"
	case KindDouble:
		return "DOUBLE"
	case KindDecimal:
		return "DECIMAL"
	case KindString:
		return "STRING"
	case KindChar:
		return "CHAR"
	case KindVarchar:
		return "VARCHAR"
	case KindBinary:
		return "BINARY"
	case KindDate:
		return "DATE"
	case KindTimestamp:
		return "TIMESTAMP"
	case KindArray:
		return "ARRAY"
	case KindMap:
		return "MAP"
	case KindStruct:
		return "STRUCT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Field is a named struct member.
type Field struct {
	Name string
	Type Type
}

// Type is a (possibly nested) SQL type in 16 bytes: the kind and its
// parameters (precision/scale for DECIMAL, length for CHAR/VARCHAR)
// share one word, and the member types of ARRAY, MAP and STRUCT sit
// behind one pointer. A Type is immutable once built, so copies share
// their members; build one with the constructors or ParseType. The
// zero Type is the NULL type.
type Type struct {
	_      [0]func() // compare with Equal, never ==
	Kind   Kind
	prec   uint8
	scale  uint8
	length uint16
	nest   *nested
}

// nested holds the member types of an ARRAY, MAP or STRUCT type.
type nested struct {
	key    Type    // MAP key
	elem   Type    // ARRAY element or MAP value
	fields []Field // STRUCT members
}

// The widest parameters the narrow type word holds.
const (
	maxTypePrecision = math.MaxUint8  // DECIMAL precision and scale
	maxTypeLength    = math.MaxUint16 // CHAR / VARCHAR length
)

// Convenience constructors for the common types.
var (
	Null      = Type{Kind: KindNull}
	Boolean   = Type{Kind: KindBoolean}
	TinyInt   = Type{Kind: KindTinyInt}
	SmallInt  = Type{Kind: KindSmallInt}
	Int       = Type{Kind: KindInt}
	BigInt    = Type{Kind: KindBigInt}
	Float     = Type{Kind: KindFloat}
	Double    = Type{Kind: KindDouble}
	String    = Type{Kind: KindString}
	Binary    = Type{Kind: KindBinary}
	Date      = Type{Kind: KindDate}
	Timestamp = Type{Kind: KindTimestamp}
)

// DecimalType returns DECIMAL(p, s). It panics when p or s is outside
// [0, maxTypePrecision]; ParseType reports those as errors instead.
func DecimalType(precision, scale int) Type {
	if precision < 0 || precision > maxTypePrecision || scale < 0 || scale > maxTypePrecision {
		panic(fmt.Sprintf("sqlval: DECIMAL(%d,%d) out of range", precision, scale))
	}
	return Type{Kind: KindDecimal, prec: uint8(precision), scale: uint8(scale)}
}

// CharType returns CHAR(n). It panics when n is outside
// [0, maxTypeLength].
func CharType(n int) Type { return Type{Kind: KindChar, length: typeLength("CHAR", n)} }

// VarcharType returns VARCHAR(n). It panics when n is outside
// [0, maxTypeLength].
func VarcharType(n int) Type { return Type{Kind: KindVarchar, length: typeLength("VARCHAR", n)} }

func typeLength(kind string, n int) uint16 {
	if n < 0 || n > maxTypeLength {
		panic(fmt.Sprintf("sqlval: %s(%d) out of range", kind, n))
	}
	return uint16(n)
}

// ArrayType returns ARRAY<elem>.
func ArrayType(elem Type) Type {
	return Type{Kind: KindArray, nest: &nested{elem: elem}}
}

// MapType returns MAP<key, value>.
func MapType(key, value Type) Type {
	return Type{Kind: KindMap, nest: &nested{key: key, elem: value}}
}

// StructType returns STRUCT<fields...>. The type keeps fields, which
// the caller must not modify afterwards.
func StructType(fields ...Field) Type {
	return Type{Kind: KindStruct, nest: &nested{fields: fields}}
}

// Precision returns a DECIMAL type's precision.
func (t Type) Precision() int { return int(t.prec) }

// Scale returns a DECIMAL type's scale.
func (t Type) Scale() int { return int(t.scale) }

// Length returns a CHAR or VARCHAR type's declared length.
func (t Type) Length() int { return int(t.length) }

// Elem returns an ARRAY type's element type.
func (t Type) Elem() Type { return t.nest.elem }

// Key returns a MAP type's key type.
func (t Type) Key() Type { return t.nest.key }

// Val returns a MAP type's value type.
func (t Type) Val() Type { return t.nest.elem }

// Fields returns a STRUCT type's members, nil for any other kind. The
// slice is shared by every copy of the type: read it, never modify it.
func (t Type) Fields() []Field {
	if t.Kind != KindStruct || t.nest == nil {
		return nil
	}
	return t.nest.fields
}

// String renders the type in HiveQL/SparkSQL DDL syntax.
func (t Type) String() string {
	switch t.Kind {
	case KindDecimal:
		return "DECIMAL(" + strconv.Itoa(t.Precision()) + "," + strconv.Itoa(t.Scale()) + ")"
	case KindChar:
		return "CHAR(" + strconv.Itoa(t.Length()) + ")"
	case KindVarchar:
		return "VARCHAR(" + strconv.Itoa(t.Length()) + ")"
	case KindArray:
		return "ARRAY<" + t.Elem().String() + ">"
	case KindMap:
		return "MAP<" + t.Key().String() + "," + t.Val().String() + ">"
	case KindStruct:
		var b strings.Builder
		b.WriteString("STRUCT<")
		for i, f := range t.Fields() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(f.Type.String())
		}
		b.WriteString(">")
		return b.String()
	default:
		return t.Kind.String()
	}
}

// Equal reports whether two types are identical, including parameters
// and nested structure. Struct field names are compared case-sensitively;
// dialects that fold case must normalize before comparing.
func (t Type) Equal(o Type) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindDecimal:
		return t.prec == o.prec && t.scale == o.scale
	case KindChar, KindVarchar:
		return t.length == o.length
	case KindArray, KindMap, KindStruct:
		if t.nest == o.nest {
			return true
		}
		switch t.Kind {
		case KindArray:
			return t.Elem().Equal(o.Elem())
		case KindMap:
			return t.Key().Equal(o.Key()) && t.Val().Equal(o.Val())
		}
		tf, of := t.Fields(), o.Fields()
		if len(tf) != len(of) {
			return false
		}
		for i := range tf {
			if tf[i].Name != of[i].Name || !tf[i].Type.Equal(of[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// IsNumeric reports whether the type belongs to the numeric family.
func (t Type) IsNumeric() bool {
	switch t.Kind {
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt, KindFloat, KindDouble, KindDecimal:
		return true
	}
	return false
}

// IsIntegral reports whether the type is a fixed-width integer type.
func (t Type) IsIntegral() bool {
	switch t.Kind {
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		return true
	}
	return false
}

// IsCharacter reports whether the type is STRING, CHAR or VARCHAR.
func (t Type) IsCharacter() bool {
	switch t.Kind {
	case KindString, KindChar, KindVarchar:
		return true
	}
	return false
}

// IsNested reports whether the type is ARRAY, MAP or STRUCT.
func (t Type) IsNested() bool {
	switch t.Kind {
	case KindArray, KindMap, KindStruct:
		return true
	}
	return false
}

// IntegralRange returns the inclusive [min, max] range of an integral
// kind. It panics on non-integral kinds; callers gate on IsIntegral.
func IntegralRange(k Kind) (min, max int64) {
	switch k {
	case KindTinyInt:
		return -128, 127
	case KindSmallInt:
		return -32768, 32767
	case KindInt:
		return -2147483648, 2147483647
	case KindBigInt:
		return -9223372036854775808, 9223372036854775807
	default:
		panic(fmt.Sprintf("sqlval: IntegralRange on non-integral kind %v", k))
	}
}

// ParseType parses a DDL type spelling such as "DECIMAL(5,2)",
// "ARRAY<INT>" or "MAP<STRING,INT>". It accepts both Hive and Spark
// spellings (BYTE/SHORT are aliases for TINYINT/SMALLINT).
func ParseType(s string) (Type, error) {
	p := &typeParser{src: s}
	t, err := p.parse()
	if err != nil {
		return Null, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Null, fmt.Errorf("sqlval: trailing input %q in type %q", p.src[p.pos:], s)
	}
	return t, nil
}

type typeParser struct {
	src string
	pos int
}

func (p *typeParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *typeParser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *typeParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return fmt.Errorf("sqlval: expected %q at offset %d in type %q", string(c), p.pos, p.src)
	}
	p.pos++
	return nil
}

// number reads a type parameter and rejects one above max, the widest
// the type word holds; what names the parameter in the error.
func (p *typeParser) number(what string, max int) (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return 0, fmt.Errorf("sqlval: expected number at offset %d in type %q", start, p.src)
	}
	n := 0
	for _, c := range p.src[start:p.pos] {
		n = n*10 + int(c-'0')
		if n > max {
			return 0, fmt.Errorf("sqlval: %s %s exceeds %d in type %q", what, p.src[start:p.pos], max, p.src)
		}
	}
	return n, nil
}

func (p *typeParser) parse() (Type, error) {
	w := strings.ToUpper(p.word())
	switch w {
	case "BOOLEAN", "BOOL":
		return Boolean, nil
	case "TINYINT", "BYTE":
		return TinyInt, nil
	case "SMALLINT", "SHORT":
		return SmallInt, nil
	case "INT", "INTEGER":
		return Int, nil
	case "BIGINT", "LONG":
		return BigInt, nil
	case "FLOAT", "REAL":
		return Float, nil
	case "DOUBLE":
		return Double, nil
	case "STRING", "TEXT":
		return String, nil
	case "BINARY":
		return Binary, nil
	case "DATE":
		return Date, nil
	case "TIMESTAMP":
		return Timestamp, nil
	case "DECIMAL", "NUMERIC":
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			p.pos++
			prec, err := p.number("DECIMAL precision", maxTypePrecision)
			if err != nil {
				return Null, err
			}
			scale := 0
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				scale, err = p.number("DECIMAL scale", maxTypePrecision)
				if err != nil {
					return Null, err
				}
			}
			if err := p.expect(')'); err != nil {
				return Null, err
			}
			return DecimalType(prec, scale), nil
		}
		return DecimalType(10, 0), nil
	case "CHAR", "VARCHAR":
		if err := p.expect('('); err != nil {
			return Null, err
		}
		n, err := p.number(w+" length", maxTypeLength)
		if err != nil {
			return Null, err
		}
		if err := p.expect(')'); err != nil {
			return Null, err
		}
		if w == "CHAR" {
			return CharType(n), nil
		}
		return VarcharType(n), nil
	case "ARRAY":
		if err := p.expect('<'); err != nil {
			return Null, err
		}
		elem, err := p.parse()
		if err != nil {
			return Null, err
		}
		if err := p.expect('>'); err != nil {
			return Null, err
		}
		return ArrayType(elem), nil
	case "MAP":
		if err := p.expect('<'); err != nil {
			return Null, err
		}
		key, err := p.parse()
		if err != nil {
			return Null, err
		}
		if err := p.expect(','); err != nil {
			return Null, err
		}
		val, err := p.parse()
		if err != nil {
			return Null, err
		}
		if err := p.expect('>'); err != nil {
			return Null, err
		}
		return MapType(key, val), nil
	case "STRUCT":
		if err := p.expect('<'); err != nil {
			return Null, err
		}
		var fields []Field
		for {
			name := p.word()
			if name == "" {
				return Null, fmt.Errorf("sqlval: expected field name in struct type %q", p.src)
			}
			if err := p.expect(':'); err != nil {
				return Null, err
			}
			ft, err := p.parse()
			if err != nil {
				return Null, err
			}
			fields = append(fields, Field{Name: name, Type: ft})
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect('>'); err != nil {
			return Null, err
		}
		return StructType(fields...), nil
	default:
		return Null, fmt.Errorf("sqlval: unknown type %q", w)
	}
}
