package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sparksim"
	"repro/internal/sqlval"
)

// agreeingCases builds n cases in Run's enumeration whose outcomes agree
// within every probe group, so no oracle fails: per input, every plan
// and format ends in the same wrapped write error, wrapped read error,
// missing row or read value. A read value renders its text once per
// case (Value.String); the values here are booleans, whose text is
// constant, so what the count sees is the judge's own allocations.
func agreeingCases(n int) []*CaseResult {
	cases := make([]*CaseResult, 0, n)
	for id := 0; len(cases) < n; id++ {
		in := &Input{ID: id, Type: sqlval.Boolean}
		var write WriteOutcome
		var read ReadOutcome
		switch id % 4 {
		case 0:
			write.Err = fmt.Errorf("insert: %w", &sqlval.CastError{Code: "CAST_OVERFLOW", To: sqlval.Int})
		case 1:
			read.Err = fmt.Errorf("scan: %w", &sparksim.AvroUnavailableError{})
		case 2:
			// The row is missing.
		default:
			v := sqlval.BoolVal(id%8 == 3)
			in.Valid, in.Expected = true, v
			read.HasRow, read.Value = true, &v
		}
		for pi, plan := range Plans() {
			for fi, format := range Formats() {
				if len(cases) == n {
					return cases
				}
				cases = append(cases, &CaseResult{Input: in, Plan: plan, Format: format, Write: write, Read: read,
					rank: rankCoord{ord: int64(id), plan: int32(pi), col: int32(fi)}})
			}
		}
	}
	return cases
}

// The judge allocates per run and per failure, never per case: over
// cases that raise no failure, 1,000 cases cost what 100 do.
func TestOraclesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	allocs := func(n int) float64 {
		cases := agreeingCases(n)
		if f := applyOracles(cases); len(f) != 0 {
			t.Fatalf("%d cases raise %d failures, want none: %+v", n, len(f), f[0])
		}
		return testing.AllocsPerRun(20, func() { applyOracles(cases) })
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("applyOracles: %.0f allocs for 100 cases, %.0f for 1,000", small, large)
	if small != large {
		t.Errorf("applyOracles allocates %.0f times for 100 cases and %.0f for 1,000: a per-case allocation", small, large)
	}
}

// oraclesSink keeps BenchmarkApplyOracles' result live.
var oraclesSink []Failure

// BenchmarkApplyOracles times the judge alone: the three §8.1 oracles
// over the base corpus's cases, run once outside the timer.
func BenchmarkApplyOracles(b *testing.B) {
	base, err := BuildBaseCorpus()
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(base, RunOptions{Parallel: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oraclesSink = applyOracles(res.Cases)
	}
}
