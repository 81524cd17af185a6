// Command crossbench measures the framework's benchmark trajectory and
// gates regressions against a recorded baseline.
//
// It measures end-to-end service quantities the per-function benchmarks
// in bench_test.go do not: corpus throughput (cases/sec) and allocation
// cost (allocs/case) over the golden Figure-6 corpus, skew-matrix
// throughput over the default writer->reader pairs, and the crossd
// serving path cold vs cached (the content-address cache speedup).
//
// Usage:
//
//	crossbench [-benchtime 1x] [-o BENCH_candidate.json]
//	           [-compare BENCH_1.json] [-tolerance 0.15] [-all]
//
// With -compare, crossbench exits 1 when a recorded metric regressed
// beyond -tolerance. By default only portable (machine-independent)
// metrics gate — allocation counts — so the comparison is meaningful on
// shared CI runners; -all additionally gates throughput and latency for
// like-for-like hardware. Record files are schema-versioned
// (internal/benchrec); EXPERIMENTS.md tracks the committed trajectory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchrec"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/versions"
)

func main() {
	testing.Init() // registers -test.* flags; benchtime is set below
	out := flag.String("o", "", "write the measured record to this file")
	compare := flag.String("compare", "", "baseline record to gate against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed relative regression before the gate fails")
	all := flag.Bool("all", false, "gate machine-dependent metrics (throughput, latency) too, not just allocation counts")
	benchtime := flag.String("benchtime", "1x", "per-measurement budget, as go test -benchtime (e.g. 1x, 3x, 2s)")
	cli.Parse("crossbench")
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "crossbench: bad -benchtime: %v\n", err)
		os.Exit(2)
	}

	rec, err := measure()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crossbench: %v\n", err)
		os.Exit(2)
	}
	for _, m := range rec.Metrics {
		kind := "machine"
		if m.Portable {
			kind = "portable"
		}
		fmt.Printf("%-24s %12.4g %-8s [%s]\n", m.Name, m.Value, m.Unit, kind)
	}
	if *out != "" {
		if err := rec.Write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "crossbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *compare == "" {
		return
	}
	base, err := benchrec.Load(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crossbench: %v\n", err)
		os.Exit(2)
	}
	regs := benchrec.Compare(base, rec, *tolerance, *all)
	if len(regs) == 0 {
		fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", *compare, *tolerance*100)
		return
	}
	fmt.Fprintf(os.Stderr, "crossbench: %d regression(s) vs %s:\n", len(regs), *compare)
	for _, g := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", g)
	}
	os.Exit(1)
}

// measure runs the four measurements and assembles the record.
func measure() (*benchrec.Record, error) {
	inputs, err := core.BuildBaseCorpus()
	if err != nil {
		return nil, err
	}

	// Corpus throughput, parallel (the deployment shape): cases/sec.
	var cases int
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Run(inputs, core.RunOptions{Parallel: 4})
			if err != nil {
				b.Fatal(err)
			}
			cases = len(res.Cases)
		}
	})
	if cases == 0 {
		return nil, fmt.Errorf("corpus run produced no cases")
	}
	corpusRate := float64(cases) * float64(r.N) / r.T.Seconds()

	// Allocation cost, sequential (deterministic for a toolchain):
	// allocs/case. This is the portable metric the CI gate rides on.
	ra := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(inputs, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocsPerCase := float64(ra.AllocsPerOp()) / float64(cases)

	// Skew-matrix throughput: the corpus re-executed per default
	// writer->reader pair.
	pairs := versions.DefaultPairs()
	rs := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunSkewMatrix(inputs, pairs, core.RunOptions{Parallel: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	skewRate := float64(cases*len(pairs)) * float64(rs.N) / rs.T.Seconds()

	// Service path: one cold job through the crossd scheduler, then the
	// identical resubmission served from the content-address cache.
	coldMs, cachedMs, err := serviceLatency()
	if err != nil {
		return nil, err
	}
	speedup := coldMs / cachedMs

	rec := &benchrec.Record{
		Schema:    benchrec.Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Metrics: []benchrec.Metric{
			{Name: "corpus_cases_per_sec", Unit: "cases/s", Value: round4(corpusRate), Better: benchrec.Higher},
			{Name: "corpus_allocs_per_case", Unit: "allocs", Value: round4(allocsPerCase), Better: benchrec.Lower, Portable: true},
			{Name: "skew_cases_per_sec", Unit: "cases/s", Value: round4(skewRate), Better: benchrec.Higher},
			{Name: "service_cold_ms", Unit: "ms", Value: round4(coldMs), Better: benchrec.Lower},
			{Name: "service_cached_ms", Unit: "ms", Value: round4(cachedMs), Better: benchrec.Lower},
			{Name: "service_speedup_x", Unit: "x", Value: round4(speedup), Better: benchrec.Higher},
		},
	}
	return rec, rec.Validate()
}

// serviceLatency measures submit-to-done through a real scheduler for a
// cold fuzz job and its cached resubmission, in milliseconds.
func serviceLatency() (cold, cached float64, err error) {
	cache, err := serve.NewCache(16, "")
	if err != nil {
		return 0, 0, err
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, QueueDepth: 8, Cache: cache, Executor: &serve.Executor{},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sched.Drain(ctx)
	}()
	spec := serve.JobSpec{Kind: serve.KindFuzz, Seed: 5, N: 200, Parallel: 2}

	run := func() (float64, error) {
		start := time.Now()
		job, err := sched.Submit(spec)
		if err != nil {
			return 0, err
		}
		<-job.Done()
		if st := job.Status(); st.State != serve.StateDone {
			return 0, fmt.Errorf("bench job finished %s: %s", st.State, st.Error)
		}
		return float64(time.Since(start)) / float64(time.Millisecond), nil
	}
	if cold, err = run(); err != nil {
		return 0, 0, err
	}
	if cached, err = run(); err != nil {
		return 0, 0, err
	}
	// A cache hit can complete inside the timer's resolution; floor it
	// so the speedup ratio stays finite.
	if cached < 0.001 {
		cached = 0.001
	}
	return cold, cached, nil
}

// round4 trims measurement noise so record diffs stay readable.
func round4(v float64) float64 { return float64(int64(v*10000+0.5)) / 10000 }
