package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles.
type summary struct {
	P25, Median, P75 float64
	N                int
}

// summarize computes the quartiles of xs by linear interpolation between
// closest ranks (a single value is its own quartiles; no values give
// zeros).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{P25: percentile(s, 25), Median: percentile(s, 50), P75: percentile(s, 75), N: len(s)}
}

// percentile reads the p-th percentile off sorted values by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median is the 50th percentile of unsorted values.
func median(xs []float64) float64 { return summarize(xs).Median }

// tailLadder lists the tail percentiles a timing is reported at, highest
// first.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten samples beyond it, so a reported tail is never the
// maximum of a handful of values. ok is false when n supports none.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// sum adds values.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, giving 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
