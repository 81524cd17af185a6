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
	"strconv"
	"strings"
)

// Kind enumerates the primitive and nested type constructors.
type Kind int

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

// Type is a (possibly nested) SQL type. Primitive types carry their
// parameters (precision/scale for DECIMAL, length for CHAR/VARCHAR);
// nested types carry element types. The zero Type is the NULL type.
type Type struct {
	Kind      Kind
	Precision int // DECIMAL precision
	Scale     int // DECIMAL scale
	Length    int // CHAR / VARCHAR declared length

	Elem   *Type   // ARRAY element
	Key    *Type   // MAP key
	Value  *Type   // MAP value
	Fields []Field // STRUCT members
}

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

// DecimalType returns DECIMAL(p, s).
func DecimalType(precision, scale int) Type {
	return Type{Kind: KindDecimal, Precision: precision, Scale: scale}
}

// CharType returns CHAR(n).
func CharType(n int) Type { return Type{Kind: KindChar, Length: n} }

// VarcharType returns VARCHAR(n).
func VarcharType(n int) Type { return Type{Kind: KindVarchar, Length: n} }

// ArrayType returns ARRAY<elem>.
func ArrayType(elem Type) Type {
	e := elem
	return Type{Kind: KindArray, Elem: &e}
}

// MapType returns MAP<key, value>.
func MapType(key, value Type) Type {
	k, v := key, value
	return Type{Kind: KindMap, Key: &k, Value: &v}
}

// StructType returns STRUCT<fields...>.
func StructType(fields ...Field) Type {
	return Type{Kind: KindStruct, Fields: fields}
}

// String renders the type in HiveQL/SparkSQL DDL syntax.
func (t Type) String() string {
	switch t.Kind {
	case KindDecimal:
		return "DECIMAL(" + strconv.Itoa(t.Precision) + "," + strconv.Itoa(t.Scale) + ")"
	case KindChar:
		return "CHAR(" + strconv.Itoa(t.Length) + ")"
	case KindVarchar:
		return "VARCHAR(" + strconv.Itoa(t.Length) + ")"
	case KindArray:
		return fmt.Sprintf("ARRAY<%s>", t.Elem)
	case KindMap:
		return fmt.Sprintf("MAP<%s,%s>", t.Key, t.Value)
	case KindStruct:
		var b strings.Builder
		b.WriteString("STRUCT<")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%s", f.Name, f.Type)
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
		return t.Precision == o.Precision && t.Scale == o.Scale
	case KindChar, KindVarchar:
		return t.Length == o.Length
	case KindArray:
		return t.Elem.Equal(*o.Elem)
	case KindMap:
		return t.Key.Equal(*o.Key) && t.Value.Equal(*o.Value)
	case KindStruct:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Equal(o.Fields[i].Type) {
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

func (p *typeParser) number() (int, error) {
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
			prec, err := p.number()
			if err != nil {
				return Null, err
			}
			scale := 0
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				scale, err = p.number()
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
		n, err := p.number()
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
