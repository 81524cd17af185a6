// Command crossfuzz runs a randomized cross-system fuzzing campaign
// over the simulated Spark-Hive data plane: seeded random multi-column
// schemas, typed boundary/invalid values, session configurations, and
// interface/format assignments, executed through the §8 harness and its
// three oracles. Failing cases are clustered by discrepancy signature;
// signatures outside the known Figure-6 registry are delta-debugged to
// minimal reproducers and (with -promote) persisted into the regression
// corpus.
//
// Usage:
//
//	crossfuzz [-seed N] [-n N] [-parallel N] [-budget DUR] [-corpus dir]
//	          [-promote] [-versions] [-trace dir] [-metrics file]
//
// -versions arms the version axis: each case additionally draws a
// writer->reader version pair (Spark 2.3/2.4/3.2 × Hive 2.3/3.1) and
// runs on a version-skew deployment, so upgrade-triggered failures
// surface alongside single-version ones. The flag is part of the
// campaign identity — the same seed produces a different (but still
// reproducible) report with it on.
//
// A fixed (-seed, -n) campaign without -budget is reproducible bit for
// bit: the printed report-hash is identical run-to-run and across
// -parallel settings.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/fuzzgen"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign seed (fixed seed + fixed -n is reproducible)")
	n := flag.Int("n", 2000, "number of generated probe groups")
	parallel := flag.Int("parallel", 1, "worker goroutines per batch")
	budget := flag.Duration("budget", 0, "wall-time budget (0 = none; budget-stopped campaigns are not reproducible)")
	corpus := flag.String("corpus", "testdata/fuzzcorpus", "regression corpus directory (dedup + promotion target)")
	promote := flag.Bool("promote", false, "write minimized new-signature reproducers into -corpus")
	confs := flag.Int("confs", 6, "size of the random session-configuration pool")
	versionsFlag := flag.Bool("versions", false, "also fuzz the version axis: each case draws a writer->reader version pair (changes the campaign outcome for a given seed)")
	cli.Observe()
	cli.Parse("crossfuzz")
	defer cli.Flush()

	opts := fuzzgen.Options{
		Seed:      *seed,
		N:         *n,
		Parallel:  *parallel,
		Budget:    *budget,
		Confs:     *confs,
		Versions:  *versionsFlag,
		CorpusDir: *corpus,
		Tracer:    cli.Tracer,
		Metrics:   cli.Metrics,
	}

	// SIGINT/SIGTERM cancel the campaign between probe groups: the
	// partial report is still flushed (clusters, hash, "stopped early"
	// marker) instead of the process dying mid-write. A second signal
	// kills the process via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Context = ctx

	res, err := fuzzgen.RunCampaign(opts)
	if err != nil {
		cli.Fatal(err)
	}
	if res.Cancelled {
		fmt.Fprintln(os.Stderr, "crossfuzz: interrupted; flushing partial report")
	}
	fmt.Print(res.Render())
	fmt.Printf("\nreport-hash: %s\n", res.Hash())
	fmt.Printf("elapsed: %s\n", res.Elapsed.Round(time.Millisecond))

	if *promote && len(res.Reproducers) > 0 {
		files, err := res.Promote(*corpus)
		if err != nil {
			cli.Fatal(fmt.Errorf("promote: %w", err))
		}
		fmt.Printf("promoted %d reproducer(s):\n", len(files))
		for _, f := range files {
			fmt.Printf("  %s\n", f)
		}
	}
}
