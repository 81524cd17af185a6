package sqlval

import (
	"testing"
	"testing/quick"
)

func TestParseDecimal(t *testing.T) {
	cases := []struct {
		in       string
		unscaled int64
		scale    int
	}{
		{"0", 0, 0},
		{"1", 1, 0},
		{"-1", -1, 0},
		{"12.34", 1234, 2},
		{"-12.34", -1234, 2},
		{"0.001", 1, 3},
		{"+7.5", 75, 1},
		{"100.", 100, 0},
		{".5", 5, 1},
		{"0.000000000000000001", 1, 18},
	}
	for _, c := range cases {
		d, err := ParseDecimal(c.in)
		if err != nil {
			t.Fatalf("ParseDecimal(%q): %v", c.in, err)
		}
		if d.Unscaled != c.unscaled || d.Scale != c.scale {
			t.Errorf("ParseDecimal(%q) = {%d, %d}, want {%d, %d}", c.in, d.Unscaled, d.Scale, c.unscaled, c.scale)
		}
	}
}

func TestParseDecimalErrors(t *testing.T) {
	// The last two fit 18 significant digits but not an 18-digit scale.
	for _, in := range []string{"", "abc", "1.2.3", ".", "12345678901234567890", "--5",
		"0.0000000000000000001", "0.0000000000000000000"} {
		if _, err := ParseDecimal(in); err == nil {
			t.Errorf("ParseDecimal(%q): expected error", in)
		}
	}
}

func TestDecimalString(t *testing.T) {
	cases := []struct {
		d    Decimal
		want string
	}{
		{Decimal{1234, 2}, "12.34"},
		{Decimal{-1234, 2}, "-12.34"},
		{Decimal{5, 3}, "0.005"},
		{Decimal{-5, 3}, "-0.005"},
		{Decimal{42, 0}, "42"},
		{Decimal{0, 2}, "0.00"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestDecimalStringParseRoundTrip(t *testing.T) {
	f := func(unscaled int64, scale uint8) bool {
		s := int(scale % 10)
		d := Decimal{Unscaled: unscaled % Pow10(17), Scale: s}
		parsed, err := ParseDecimal(d.String())
		if err != nil {
			return false
		}
		return parsed.Cmp(d) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecimalRescale(t *testing.T) {
	d := Decimal{1234, 2} // 12.34
	up, lost, err := d.Rescale(4)
	if err != nil || lost || up.Unscaled != 123400 || up.Scale != 4 {
		t.Fatalf("Rescale up = %+v lost=%v err=%v", up, lost, err)
	}
	down, lost, err := d.Rescale(1)
	if err != nil || !lost || down.Unscaled != 123 {
		t.Fatalf("Rescale down = %+v lost=%v err=%v", down, lost, err)
	}
	exact, lost, err := Decimal{1230, 2}.Rescale(1)
	if err != nil || lost || exact.Unscaled != 123 {
		t.Fatalf("Rescale exact down = %+v lost=%v err=%v", exact, lost, err)
	}
	if _, _, err := (Decimal{Pow10(17), 0}).Rescale(5); err == nil {
		t.Error("expected overflow on huge rescale")
	}
}

func TestDecimalPrecisionAndFits(t *testing.T) {
	if p := (Decimal{1234, 2}).Precision(); p != 4 {
		t.Errorf("precision = %d, want 4", p)
	}
	if p := (Decimal{0, 2}).Precision(); p != 3 {
		t.Errorf("precision of 0.00 = %d, want 3", p)
	}
	if !(Decimal{123, 2}).FitsIn(5, 2) {
		t.Error("1.23 should fit DECIMAL(5,2)")
	}
	if (Decimal{123456, 5}).FitsIn(5, 2) {
		t.Error("1.23456 should not fit DECIMAL(5,2) exactly")
	}
	if !(Decimal{99999, 2}).FitsIn(5, 2) {
		t.Error("999.99 should fit DECIMAL(5,2)")
	}
	if (Decimal{1000000, 2}).FitsIn(5, 2) {
		t.Error("10000.00 should not fit DECIMAL(5,2)")
	}
}

func TestDecimalCmp(t *testing.T) {
	a := Decimal{1234, 2}  // 12.34
	b := Decimal{12340, 3} // 12.340
	if a.Cmp(b) != 0 {
		t.Error("12.34 != 12.340")
	}
	c := Decimal{1235, 2}
	if a.Cmp(c) != -1 || c.Cmp(a) != 1 {
		t.Error("ordering wrong")
	}
}

func TestDecimalCmpProperty(t *testing.T) {
	f := func(a, b int32, sa, sb uint8) bool {
		da := Decimal{Unscaled: int64(a), Scale: int(sa % 6)}
		db := Decimal{Unscaled: int64(b), Scale: int(sb % 6)}
		got := da.Cmp(db)
		fa, fb := da.Float64(), db.Float64()
		switch {
		case fa < fb:
			return got == -1
		case fa > fb:
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
