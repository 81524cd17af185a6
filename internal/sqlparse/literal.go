package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlval"
)

// Eval converts a literal expression to a naturally-typed value:
// integer literals become INT (or BIGINT when they do not fit), decimal
// literals become DECIMAL with their written scale, exponent literals
// become DOUBLE. The engine then coerces the natural value into the
// destination column type under its own cast mode; mode here only
// governs conversions inside nested literals and explicit CASTs.
func Eval(e Expr, mode sqlval.CastMode) (sqlval.Value, error) {
	switch lit := e.(type) {
	case NullLit:
		return sqlval.NullOf(sqlval.Null), nil
	case BoolLit:
		return sqlval.BoolVal(lit.Value), nil
	case NumberLit:
		return evalNumber(lit)
	case StringLit:
		return sqlval.StringVal(lit.Value), nil
	case BinaryLit:
		return sqlval.BinaryVal(lit.Value), nil
	case TypedLit:
		switch lit.Type.Kind {
		case sqlval.KindDate:
			days, err := sqlval.ParseDate(lit.Raw)
			if err != nil {
				return sqlval.Value{}, err
			}
			return sqlval.DateVal(days), nil
		case sqlval.KindTimestamp:
			micros, err := sqlval.ParseTimestamp(lit.Raw)
			if err != nil {
				return sqlval.Value{}, err
			}
			return sqlval.TimestampVal(micros), nil
		default:
			return sqlval.Value{}, fmt.Errorf("sql: unsupported typed literal %v", lit.Type)
		}
	case ArrayLit:
		items := make([]sqlval.Value, len(lit.Items))
		for i, it := range lit.Items {
			v, err := Eval(it, mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			items[i] = v
		}
		elem := unifyTypes(items, 0, 1)
		for i := range items {
			c, err := sqlval.Cast(items[i], elem, mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			items[i] = c
		}
		return sqlval.ArrayVal(sqlval.ArrayType(elem), items...), nil
	case MapLit:
		entries := make([]sqlval.Value, 2*len(lit.Keys))
		for i := range lit.Keys {
			k, err := Eval(lit.Keys[i], mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			v, err := Eval(lit.Vals[i], mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			entries[2*i], entries[2*i+1] = k, v
		}
		keyT := unifyTypes(entries, 0, 2)
		valT := unifyTypes(entries, 1, 2)
		for i := 0; i < len(entries); i += 2 {
			k, err := sqlval.Cast(entries[i], keyT, mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			v, err := sqlval.Cast(entries[i+1], valT, mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			entries[i], entries[i+1] = k, v
		}
		return sqlval.MapVal(sqlval.MapType(keyT, valT), entries...), nil
	case StructLit:
		fields := make([]sqlval.Field, len(lit.Names))
		vals := make([]sqlval.Value, len(lit.Vals))
		for i := range lit.Names {
			v, err := Eval(lit.Vals[i], mode)
			if err != nil {
				return sqlval.Value{}, err
			}
			vals[i] = v
			fields[i] = sqlval.Field{Name: lit.Names[i], Type: v.Type()}
		}
		return sqlval.StructVal(sqlval.StructType(fields...), vals...), nil
	case CastExpr:
		inner, err := Eval(lit.Inner, mode)
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.Cast(inner, lit.To, mode)
	default:
		return sqlval.Value{}, fmt.Errorf("sql: unknown expression %T", e)
	}
}

func evalNumber(lit NumberLit) (sqlval.Value, error) {
	raw := lit.Raw
	if lit.Neg {
		raw = "-" + raw
	}
	if strings.ContainsAny(raw, "eE") {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return sqlval.Value{}, fmt.Errorf("sql: bad numeric literal %q", lit.Raw)
		}
		return sqlval.DoubleVal(f), nil
	}
	if strings.ContainsRune(raw, '.') {
		d, err := sqlval.ParseDecimal(raw)
		if err != nil {
			return sqlval.Value{}, fmt.Errorf("sql: bad numeric literal %q: %v", lit.Raw, err)
		}
		return sqlval.DecimalVal(sqlval.DecimalType(d.Precision(), d.Scale), d), nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return sqlval.Value{}, fmt.Errorf("sql: integer literal %q out of range", lit.Raw)
	}
	if min, max := sqlval.IntegralRange(sqlval.KindInt); n >= min && n <= max {
		return sqlval.IntVal(sqlval.Int, n), nil
	}
	return sqlval.IntVal(sqlval.BigInt, n), nil
}

// unifyTypes picks the element type for a collection literal: the type
// of the first non-null item, widened to DOUBLE/BIGINT/STRING when the
// items disagree within a family. It reads every step-th item from
// start, so a map literal's interleaved entries give their key and
// value types.
func unifyTypes(items []sqlval.Value, start, step int) sqlval.Type {
	t := sqlval.Null
	for i := start; i < len(items); i += step {
		v, vt := items[i], items[i].Type()
		if v.IsNull() && vt.Kind == sqlval.KindNull {
			continue
		}
		if t.Kind == sqlval.KindNull {
			t = vt
			continue
		}
		if t.Equal(vt) {
			continue
		}
		switch {
		case t.IsIntegral() && vt.IsIntegral():
			if vt.Kind > t.Kind {
				t = vt
			}
		case t.IsNumeric() && vt.IsNumeric():
			t = sqlval.Double
		case t.IsCharacter() && vt.IsCharacter():
			t = sqlval.String
		default:
			t = sqlval.String
		}
	}
	if t.Kind == sqlval.KindNull {
		t = sqlval.String
	}
	return t
}
