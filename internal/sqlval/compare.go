package sqlval

import (
	"fmt"
	"strings"
)

// Compare orders two values of comparable kinds, returning -1, 0 or +1.
// Numeric values compare numerically across kinds; character values
// compare lexicographically. NULL compares less than everything and
// equal to NULL. Nested types and cross-family comparisons are errors.
func Compare(a, b Value) (int, error) {
	if a.null || b.null {
		switch {
		case a.null && b.null:
			return 0, nil
		case a.null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch {
	case a.Type().IsNumeric() && b.Type().IsNumeric():
		return compareNumeric(a, b), nil
	case a.Type().IsCharacter() && b.Type().IsCharacter():
		return strings.Compare(a.s, b.s), nil
	case a.kind == KindBoolean && b.kind == KindBoolean:
		switch {
		case a.Bool() == b.Bool():
			return 0, nil
		case b.Bool():
			return -1, nil
		default:
			return 1, nil
		}
	case a.kind == KindBinary && b.kind == KindBinary:
		return strings.Compare(a.s, b.s), nil
	case a.kind == b.kind && (a.kind == KindDate || a.kind == KindTimestamp):
		return compareInt64(a.Int(), b.Int()), nil
	default:
		return 0, fmt.Errorf("sqlval: cannot compare %s with %s", a.Type(), b.Type())
	}
}

func compareNumeric(a, b Value) int {
	if a.Type().IsIntegral() && b.Type().IsIntegral() {
		return compareInt64(a.Int(), b.Int())
	}
	if a.kind == KindDecimal && b.kind == KindDecimal {
		return a.Dec().Cmp(b.Dec())
	}
	fa, fb := numericFloat(a), numericFloat(b)
	switch {
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	default:
		return 0
	}
}

func numericFloat(v Value) float64 {
	switch v.kind {
	case KindFloat, KindDouble:
		return v.Float()
	case KindDecimal:
		return v.Dec().Float64()
	default:
		return float64(v.Int())
	}
}

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
