package sqlval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CastMode selects a dialect's coercion behavior. The three modes model
// the store-assignment policies at the heart of several §8.2
// discrepancies: the same value assigned to the same column type yields
// an error, a silent NULL, or a truncated value depending on the engine
// and its configuration.
type CastMode int

const (
	// CastANSI is Spark's ANSI store-assignment policy: invalid or
	// out-of-range input raises a CastError.
	CastANSI CastMode = iota
	// CastLegacy is Spark's legacy policy: invalid input becomes NULL,
	// out-of-range integrals wrap, and overlong strings truncate.
	CastLegacy
	// CastHive is Hive's lenient coercion: invalid or out-of-range input
	// becomes NULL with no feedback.
	CastHive
)

// String names the mode for logs.
func (m CastMode) String() string {
	switch m {
	case CastANSI:
		return "ansi"
	case CastLegacy:
		return "legacy"
	case CastHive:
		return "hive"
	default:
		return fmt.Sprintf("CastMode(%d)", int(m))
	}
}

// CastError reports a failed strict cast. The Code field is a stable
// error class used by the cross-testing framework to cluster failures.
type CastError struct {
	From   Type
	To     Type
	Code   string // e.g. "CAST_OVERFLOW", "CAST_INVALID_INPUT"
	Detail string
}

// Error implements the error interface.
func (e *CastError) Error() string {
	return fmt.Sprintf("cast %s to %s failed [%s]: %s", e.From, e.To, e.Code, e.Detail)
}

func castErr(from, to Type, code, detail string) error {
	return &CastError{From: from, To: to, Code: code, Detail: detail}
}

// Cast converts v to the target type under the given mode. In lenient
// modes invalid input yields a NULL of the target type with a nil
// error; in ANSI mode it yields a *CastError.
func Cast(v Value, to Type, mode CastMode) (Value, error) {
	if v.null {
		return NullOf(to), nil
	}
	if v.Type().Equal(to) && !to.IsNested() && to.Kind != KindChar && to.Kind != KindVarchar && to.Kind != KindDecimal {
		return v, nil
	}
	out, err := cast(v, to, mode)
	if err != nil {
		if mode == CastANSI {
			return NullOf(to), err
		}
		// Lenient modes convert failures to NULL without feedback.
		return NullOf(to), nil
	}
	return out, nil
}

func cast(v Value, to Type, mode CastMode) (Value, error) {
	switch to.Kind {
	case KindBoolean:
		return castToBoolean(v)
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		return castToIntegral(v, to, mode)
	case KindFloat, KindDouble:
		return castToFloating(v, to, mode)
	case KindDecimal:
		return castToDecimal(v, to)
	case KindString:
		return StringVal(renderForString(v)), nil
	case KindChar:
		return castToChar(v, to, mode)
	case KindVarchar:
		return castToVarchar(v, to, mode)
	case KindBinary:
		return castToBinary(v)
	case KindDate:
		return castToDate(v)
	case KindTimestamp:
		return castToTimestamp(v)
	case KindArray:
		return castToArray(v, to, mode)
	case KindMap:
		return castToMap(v, to, mode)
	case KindStruct:
		return castToStruct(v, to, mode)
	default:
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "unsupported target kind")
	}
}

func castToBoolean(v Value) (Value, error) {
	switch v.kind {
	case KindBoolean:
		return v, nil
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		return BoolVal(v.Int() != 0), nil
	case KindString, KindChar, KindVarchar:
		switch strings.ToLower(strings.TrimSpace(v.s)) {
		case "true", "t", "1":
			return BoolVal(true), nil
		case "false", "f", "0":
			return BoolVal(false), nil
		}
		return Value{}, castErr(v.Type(), Boolean, "CAST_INVALID_INPUT", fmt.Sprintf("%q is not a boolean", v.s))
	default:
		return Value{}, castErr(v.Type(), Boolean, "CAST_UNSUPPORTED", "no conversion to BOOLEAN")
	}
}

func castToIntegral(v Value, to Type, mode CastMode) (Value, error) {
	var raw int64
	switch v.kind {
	case KindBoolean:
		if v.Bool() {
			raw = 1
		}
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		raw = v.Int()
	case KindFloat, KindDouble:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Value{}, castErr(v.Type(), to, "CAST_INVALID_INPUT", "non-finite float to integral")
		}
		if f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
			return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW", "float exceeds BIGINT range")
		}
		raw = int64(f)
	case KindDecimal:
		r, _, err := v.Dec().Rescale(0)
		if err != nil {
			return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW", err.Error())
		}
		raw = r.Unscaled
	case KindString, KindChar, KindVarchar:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			// Retry as a decimal literal, truncating the fraction, which
			// both engines accept for strings like "3.0".
			d, derr := ParseDecimal(v.s)
			if derr != nil {
				return Value{}, castErr(v.Type(), to, "CAST_INVALID_INPUT", fmt.Sprintf("%q is not a number", v.s))
			}
			r, _, rerr := d.Rescale(0)
			if rerr != nil {
				return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW", rerr.Error())
			}
			n = r.Unscaled
		}
		raw = n
	case KindDate:
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "DATE to integral")
	case KindTimestamp:
		raw = v.Int() / MicrosPerSecond
	default:
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "no conversion to integral")
	}
	min, max := IntegralRange(to.Kind)
	if raw < min || raw > max {
		if mode == CastLegacy {
			// Legacy Spark wraps by truncating to the target width.
			switch to.Kind {
			case KindTinyInt:
				raw = int64(int8(raw))
			case KindSmallInt:
				raw = int64(int16(raw))
			case KindInt:
				raw = int64(int32(raw))
			}
			return IntVal(to, raw), nil
		}
		return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW",
			fmt.Sprintf("value %d out of range [%d, %d]", raw, min, max))
	}
	return IntVal(to, raw), nil
}

func castToFloating(v Value, to Type, mode CastMode) (Value, error) {
	mk := func(f float64) Value {
		if to.Kind == KindFloat {
			return FloatVal(f)
		}
		return DoubleVal(f)
	}
	switch v.kind {
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		return mk(float64(v.Int())), nil
	case KindFloat, KindDouble:
		return mk(v.Float()), nil
	case KindDecimal:
		return mk(v.Dec().Float64()), nil
	case KindBoolean:
		if v.Bool() {
			return mk(1), nil
		}
		return mk(0), nil
	case KindString, KindChar, KindVarchar:
		s := strings.TrimSpace(v.s)
		switch strings.ToLower(s) {
		case "nan", "infinity", "inf", "+infinity", "-infinity", "-inf":
			// ANSI SQL numeric syntax does not admit the IEEE special
			// spellings; the legacy path accepts them (SPARK-40525).
			if mode == CastANSI {
				return Value{}, castErr(v.Type(), to, "CAST_INVALID_INPUT",
					fmt.Sprintf("%q is not a valid ANSI numeric literal", v.s))
			}
			switch strings.ToLower(s) {
			case "nan":
				return mk(math.NaN()), nil
			case "-infinity", "-inf":
				return mk(math.Inf(-1)), nil
			default:
				return mk(math.Inf(1)), nil
			}
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsInf(f, 0) {
			return Value{}, castErr(v.Type(), to, "CAST_INVALID_INPUT", fmt.Sprintf("%q is not a number", v.s))
		}
		return mk(f), nil
	default:
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "no conversion to floating point")
	}
}

func castToDecimal(v Value, to Type) (Value, error) {
	var d Decimal
	switch v.kind {
	case KindDecimal:
		d = v.Dec()
	case KindTinyInt, KindSmallInt, KindInt, KindBigInt:
		d = Decimal{Unscaled: v.Int()}
	case KindFloat, KindDouble:
		var err error
		d, err = ParseDecimal(strconv.FormatFloat(v.Float(), 'f', to.Scale(), 64))
		if err != nil {
			return Value{}, castErr(v.Type(), to, "CAST_INVALID_INPUT", err.Error())
		}
	case KindString, KindChar, KindVarchar:
		var err error
		d, err = ParseDecimal(v.s)
		if err != nil {
			return Value{}, castErr(v.Type(), to, "CAST_INVALID_INPUT", err.Error())
		}
	default:
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "no conversion to DECIMAL")
	}
	r, lost, err := d.Rescale(to.Scale())
	if err != nil {
		return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW", err.Error())
	}
	if lost {
		return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW",
			fmt.Sprintf("value %s has more than %d fractional digits", d, to.Scale()))
	}
	if r.Precision() > to.Precision() && r.Unscaled != 0 {
		return Value{}, castErr(v.Type(), to, "CAST_OVERFLOW",
			fmt.Sprintf("value %s exceeds DECIMAL(%d,%d)", d, to.Precision(), to.Scale()))
	}
	return DecimalVal(to, r), nil
}

// renderForString produces the cast-to-string rendering, which differs
// from Value.String by not quoting character content.
func renderForString(v Value) string {
	if v.Type().IsCharacter() || v.kind == KindBinary {
		return v.s
	}
	return v.String()
}

func castToChar(v Value, to Type, mode CastMode) (Value, error) {
	s := renderForString(v)
	if len(s) > to.Length() {
		trimmed := strings.TrimRight(s, " ")
		if len(trimmed) > to.Length() {
			if mode == CastANSI {
				return Value{}, castErr(v.Type(), to, "EXCEED_CHAR_LENGTH",
					fmt.Sprintf("input length %d exceeds CHAR(%d)", len(trimmed), to.Length()))
			}
			trimmed = trimmed[:to.Length()]
		}
		s = trimmed
	}
	// CHAR semantics pad the stored value to the declared length.
	for len(s) < to.Length() {
		s += " "
	}
	return textVal(to, s), nil
}

func castToVarchar(v Value, to Type, mode CastMode) (Value, error) {
	s := renderForString(v)
	if len(s) > to.Length() {
		trimmed := strings.TrimRight(s, " ")
		if len(trimmed) > to.Length() {
			if mode == CastANSI {
				return Value{}, castErr(v.Type(), to, "EXCEED_VARCHAR_LENGTH",
					fmt.Sprintf("input length %d exceeds VARCHAR(%d)", len(trimmed), to.Length()))
			}
			trimmed = trimmed[:to.Length()]
		}
		s = trimmed
	}
	return textVal(to, s), nil
}

func castToBinary(v Value) (Value, error) {
	switch v.kind {
	case KindBinary:
		return v, nil
	case KindString, KindChar, KindVarchar:
		return textVal(Binary, v.s), nil
	default:
		return Value{}, castErr(v.Type(), Binary, "CAST_UNSUPPORTED", "no conversion to BINARY")
	}
}

func castToDate(v Value) (Value, error) {
	switch v.kind {
	case KindDate:
		return v, nil
	case KindTimestamp:
		micros := v.Int()
		days := micros / MicrosPerDay
		if micros%MicrosPerDay < 0 {
			days--
		}
		return DateVal(days), nil
	case KindString, KindChar, KindVarchar:
		days, err := ParseDate(v.s)
		if err != nil {
			return Value{}, castErr(v.Type(), Date, "CAST_INVALID_INPUT", err.Error())
		}
		return DateVal(days), nil
	default:
		return Value{}, castErr(v.Type(), Date, "CAST_UNSUPPORTED", "no conversion to DATE")
	}
}

func castToTimestamp(v Value) (Value, error) {
	switch v.kind {
	case KindTimestamp:
		return v, nil
	case KindDate:
		return TimestampVal(v.Int() * MicrosPerDay), nil
	case KindString, KindChar, KindVarchar:
		micros, err := ParseTimestamp(v.s)
		if err != nil {
			return Value{}, castErr(v.Type(), Timestamp, "CAST_INVALID_INPUT", err.Error())
		}
		return TimestampVal(micros), nil
	default:
		return Value{}, castErr(v.Type(), Timestamp, "CAST_UNSUPPORTED", "no conversion to TIMESTAMP")
	}
}

func castToArray(v Value, to Type, mode CastMode) (Value, error) {
	if v.kind != KindArray {
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "no conversion to ARRAY")
	}
	return castElems(v, to, mode, func(int) Type { return to.Elem() })
}

func castToMap(v Value, to Type, mode CastMode) (Value, error) {
	if v.kind != KindMap {
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "no conversion to MAP")
	}
	return castElems(v, to, mode, func(i int) Type {
		if i%2 == 0 {
			return to.Key()
		}
		return to.Val()
	})
}

func castToStruct(v Value, to Type, mode CastMode) (Value, error) {
	fields := to.Fields()
	if v.kind != KindStruct || len(v.elems) != len(fields) {
		return Value{}, castErr(v.Type(), to, "CAST_UNSUPPORTED", "struct shape mismatch")
	}
	return castElems(v, to, mode, func(i int) Type { return fields[i].Type })
}

// castElems casts each member of a nested value to the member type
// elemType gives for its position, stopping at the first error.
func castElems(v Value, to Type, mode CastMode, elemType func(int) Type) (Value, error) {
	out := nestedVal(to, make([]Value, len(v.elems)))
	for i, e := range v.elems {
		c, err := Cast(e, elemType(i), mode)
		if err != nil {
			return Value{}, err
		}
		out.elems[i] = c
	}
	return out, nil
}
