package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{10, 0, false},
		{39, 0, false},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(100-p)/100 < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than ten samples beyond", tc.n, p)
		}
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		p25, med, p75 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{10, 20}, 12.5, 15, 17.5},
	} {
		s := summarize(tc.xs)
		if s.P25 != tc.p25 || s.Median != tc.med || s.P75 != tc.p75 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v; want p25 %g median %g p75 %g n %d", tc.xs, s, tc.p25, tc.med, tc.p75, len(tc.xs))
		}
	}
}

func TestPercentileEnds(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0); got != 1 {
		t.Errorf("p0 = %g", got)
	}
	if got := percentile(s, 100); got != 10 {
		t.Errorf("p100 = %g", got)
	}
	if got := percentile(s, 99); math.Abs(got-9.91) > 1e-9 {
		t.Errorf("p99 = %g, want 9.91", got)
	}
}
