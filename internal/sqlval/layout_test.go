package sqlval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The cell sizes every row, schema and cast error is built from.
func TestLayoutSizes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 64 {
		t.Errorf("Value is %d B, want at most 64", n)
	}
	if n := unsafe.Sizeof(Type{}); n > 16 {
		t.Errorf("Type is %d B, want at most 16", n)
	}
}

// GenRow draws a row of cols valid values from seed: every kind,
// NULLs, and ARRAY/MAP/STRUCT nested up to three levels. Valid means
// each value already fits its type, so a cast to that type is the
// identity. Two calls with one seed build equal rows that share no
// storage.
func GenRow(seed int64, cols int) Row {
	r := rand.New(rand.NewSource(seed))
	row := make(Row, cols)
	for i := range row {
		row[i] = genValue(r, genType(r, 3))
	}
	return row
}

func genType(r *rand.Rand, depth int) Type {
	kinds := int(KindTimestamp) // BOOLEAN through TIMESTAMP
	if depth > 0 {
		kinds = int(KindStruct)
	}
	switch k := Kind(1 + r.Intn(kinds)); k {
	case KindDecimal:
		p := 1 + r.Intn(MaxDecimalPrecision)
		return DecimalType(p, r.Intn(p))
	case KindChar:
		return CharType(1 + r.Intn(6))
	case KindVarchar:
		return VarcharType(1 + r.Intn(6))
	case KindArray:
		return ArrayType(genType(r, depth-1))
	case KindMap:
		return MapType(genType(r, depth-1), genType(r, depth-1))
	case KindStruct:
		fields := make([]Field, 1+r.Intn(3))
		for i := range fields {
			fields[i] = Field{Name: fmt.Sprintf("f%d", i), Type: genType(r, depth-1)}
		}
		return StructType(fields...)
	default:
		return Type{Kind: k}
	}
}

func genValue(r *rand.Rand, t Type) Value {
	if r.Intn(8) == 0 {
		return NullOf(t)
	}
	switch t.Kind {
	case KindBoolean:
		return BoolVal(r.Intn(2) == 1)
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		min, max := IntegralRange(t.Kind)
		return IntVal(t, []int64{min, max, 0, r.Int63n(201) - 100}[r.Intn(4)])
	case KindFloat, KindDouble:
		f := []float64{r.NormFloat64() * 1e6, math.NaN(), math.Inf(1), math.Inf(-1), 0}[r.Intn(5)]
		if t.Kind == KindFloat {
			return FloatVal(f)
		}
		return DoubleVal(f)
	case KindDecimal:
		u := r.Int63n(Pow10(t.Precision()))
		if r.Intn(2) == 0 {
			u = -u
		}
		return DecimalVal(t, Decimal{Unscaled: u, Scale: t.Scale()})
	case KindString:
		return StringVal(genText(r, r.Intn(8)))
	case KindChar:
		return CharVal(genText(r, t.Length()), t.Length())
	case KindVarchar:
		return VarcharVal(genText(r, r.Intn(t.Length()+1)), t.Length())
	case KindBinary:
		b := make([]byte, r.Intn(6))
		r.Read(b)
		return BinaryVal(b)
	case KindDate:
		return DateVal(r.Int63n(200000) - 100000)
	case KindTimestamp:
		return TimestampVal(r.Int63n(1<<52) - 1<<51)
	case KindArray:
		items := make([]Value, r.Intn(4))
		for i := range items {
			items[i] = genValue(r, t.Elem())
		}
		return ArrayVal(t, items...)
	case KindMap:
		entries := make([]Value, 2*r.Intn(3))
		for i := 0; i < len(entries); i += 2 {
			entries[i], entries[i+1] = genValue(r, t.Key()), genValue(r, t.Val())
		}
		return MapVal(t, entries...)
	case KindStruct:
		vals := make([]Value, len(t.Fields()))
		for i, f := range t.Fields() {
			vals[i] = genValue(r, f.Type)
		}
		return StructVal(t, vals...)
	}
	panic(fmt.Sprintf("genValue: kind %v", t.Kind))
}

func genText(r *rand.Rand, n int) string {
	const alphabet = "ab Z'\"\\é"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// scribble overwrites, in place, every leaf member of every nested
// slice reachable from v, and reports whether there was one.
func scribble(v Value) bool {
	wrote := false
	for i := range v.elems {
		if v.elems[i].Type().IsNested() {
			wrote = scribble(v.elems[i]) || wrote
			continue
		}
		v.elems[i] = StringVal("scribbled")
		wrote = true
	}
	return wrote
}

func TestValueLayoutProperties(t *testing.T) {
	const seeds = 300
	for seed := int64(0); seed < seeds; seed++ {
		a, b := GenRow(seed, 4), GenRow(seed, 4)
		for i := range a {
			v, w := a[i], b[i]
			if v.String() != w.String() || v.Type().String() != w.Type().String() {
				t.Fatalf("seed %d: rebuild renders %s %s, first build %s %s", seed, w.Type(), w, v.Type(), v)
			}
			if !v.Equal(w) || !v.EqualData(w) || !v.Type().Equal(w.Type()) {
				t.Fatalf("seed %d: rebuild of %s %s is not equal", seed, v.Type(), v)
			}
			before := v.String()
			c := v.Clone()
			if scribble(c) && c.EqualData(v) {
				t.Fatalf("seed %d: changed clone %s still equals %s", seed, c, v)
			}
			if v.String() != before {
				t.Fatalf("seed %d: changing a clone changed the original: %s, was %s", seed, v, before)
			}
			for _, mode := range []CastMode{CastANSI, CastLegacy, CastHive} {
				got, err := Cast(v, v.Type(), mode)
				if err != nil || !got.Equal(v) || got.String() != before {
					t.Fatalf("seed %d: %s cast of %s %s to its own type = %s, %v", seed, mode, v.Type(), v, got, err)
				}
			}
		}
		if !a.Equal(b) || a.String() != b.String() {
			t.Fatalf("seed %d: rebuilt row %s differs from %s", seed, b, a)
		}
	}
}
