package sqlval

import (
	"fmt"
	"strings"
)

// Decimal is a fixed-point decimal value stored as an unscaled 64-bit
// integer plus a scale: the represented value is Unscaled * 10^-Scale.
// The maximum supported precision is 18 digits, which covers the DDL
// range exercised by the case study.
type Decimal struct {
	Unscaled int64
	Scale    int
}

// MaxDecimalPrecision is the widest precision representable in an
// int64-backed Decimal.
const MaxDecimalPrecision = 18

var pow10 = [...]int64{
	1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
	1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
	100000000000000, 1000000000000000, 10000000000000000, 100000000000000000,
	1000000000000000000,
}

// Pow10 returns 10^n for 0 <= n <= 18.
func Pow10(n int) int64 {
	if n < 0 || n >= len(pow10) {
		panic(fmt.Sprintf("sqlval: Pow10(%d) out of range", n))
	}
	return pow10[n]
}

// ParseDecimal parses a decimal literal such as "-12.345". The resulting
// scale equals the number of fractional digits written, at most
// MaxDecimalPrecision.
func ParseDecimal(s string) (Decimal, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Decimal{}, fmt.Errorf("sqlval: empty decimal literal")
	}
	neg := false
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		neg = true
		s = s[1:]
	}
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return Decimal{}, fmt.Errorf("sqlval: malformed decimal literal %q", s)
	}
	digits := intPart + fracPart
	if len(digits) > MaxDecimalPrecision {
		// Drop leading zeros before declaring overflow.
		trimmed := strings.TrimLeft(digits, "0")
		if len(trimmed) > MaxDecimalPrecision {
			return Decimal{}, fmt.Errorf("sqlval: decimal literal %q exceeds precision %d", s, MaxDecimalPrecision)
		}
	}
	if len(fracPart) > MaxDecimalPrecision {
		// Leading zeros after the point still count toward the scale,
		// and no scale past 18 can be rendered or rescaled.
		return Decimal{}, fmt.Errorf("sqlval: decimal literal %q exceeds scale %d", s, MaxDecimalPrecision)
	}
	var unscaled int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return Decimal{}, fmt.Errorf("sqlval: malformed decimal literal %q", s)
		}
		unscaled = unscaled*10 + int64(c-'0')
	}
	if neg {
		unscaled = -unscaled
	}
	return Decimal{Unscaled: unscaled, Scale: len(fracPart)}, nil
}

// Precision returns the number of significant digits in the decimal,
// counting at least Scale+1 so that 0.00 has precision 3.
func (d Decimal) Precision() int {
	u := d.Unscaled
	if u < 0 {
		u = -u
	}
	digits := 1
	for u >= 10 {
		u /= 10
		digits++
	}
	if digits < d.Scale+1 {
		digits = d.Scale + 1
	}
	return digits
}

// String renders the decimal with exactly Scale fractional digits.
func (d Decimal) String() string {
	u := d.Unscaled
	neg := u < 0
	if neg {
		u = -u
	}
	if d.Scale == 0 {
		if neg {
			return fmt.Sprintf("-%d", u)
		}
		return fmt.Sprintf("%d", u)
	}
	p := Pow10(d.Scale)
	intPart, fracPart := u/p, u%p
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%d.%0*d", sign, intPart, d.Scale, fracPart)
}

// Float64 returns the approximate floating-point value of the decimal.
func (d Decimal) Float64() float64 {
	return float64(d.Unscaled) / float64(Pow10(d.Scale))
}

// Rescale converts the decimal to the target scale. Increasing the scale
// multiplies the unscaled value; decreasing it truncates toward zero and
// reports whether any fractional digits were lost.
func (d Decimal) Rescale(scale int) (out Decimal, lost bool, err error) {
	switch {
	case scale == d.Scale:
		return d, false, nil
	case scale > d.Scale:
		shift := scale - d.Scale
		if shift >= len(pow10) {
			return Decimal{}, false, fmt.Errorf("sqlval: rescale shift %d too large", shift)
		}
		m := Pow10(shift)
		u := d.Unscaled * m
		if d.Unscaled != 0 && u/m != d.Unscaled {
			return Decimal{}, false, fmt.Errorf("sqlval: decimal %s overflows at scale %d", d, scale)
		}
		return Decimal{Unscaled: u, Scale: scale}, false, nil
	default:
		shift := d.Scale - scale
		m := Pow10(shift)
		q, r := d.Unscaled/m, d.Unscaled%m
		return Decimal{Unscaled: q, Scale: scale}, r != 0, nil
	}
}

// FitsIn reports whether the decimal can be represented exactly as
// DECIMAL(precision, scale): rescaling must lose no fractional digits
// and the result must fit the precision.
func (d Decimal) FitsIn(precision, scale int) bool {
	r, lost, err := d.Rescale(scale)
	if err != nil || lost {
		return false
	}
	return r.Precision() <= precision || r.Unscaled == 0
}

// Cmp compares two decimals numerically, returning -1, 0 or +1.
func (d Decimal) Cmp(o Decimal) int {
	// Compare at the wider scale; fall back to float on overflow, which
	// only loses precision beyond 18 digits.
	scale := d.Scale
	if o.Scale > scale {
		scale = o.Scale
	}
	a, _, errA := d.Rescale(scale)
	b, _, errB := o.Rescale(scale)
	if errA != nil || errB != nil {
		fa, fb := d.Float64(), o.Float64()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.Unscaled < b.Unscaled:
		return -1
	case a.Unscaled > b.Unscaled:
		return 1
	default:
		return 0
	}
}
