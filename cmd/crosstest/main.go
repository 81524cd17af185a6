// Command crosstest runs the §8 cross-system test over the simulated
// Spark-Hive data plane: the full input corpus through the eight
// write/read plans of Figure 6 and the three backend formats, under the
// three oracles, and prints the discrepancy report.
//
// Usage:
//
//	crosstest [-family ss|sh|hs] [-conf key=value]... [-failures N] [-inputs prefix]
//	          [-versions matrix|list|PAIR] [-json] [-trace dir] [-metrics file]
//
// The -conf flag applies a deployment configuration before testing —
// "testing systems under the deployment configuration" — so the effect
// of the fix configurations on the report can be observed directly.
//
// -versions switches to version-skew differential testing: the corpus
// runs on a deployment whose writer and reader stacks carry different
// Spark/Hive versions, and skew-only discrepancies are isolated and
// pinned against the skew registry. "matrix" runs the default
// writer×reader pair matrix, "list" prints the modeled versions, pairs,
// and skew registry, and a PAIR like "2.3.0/2.3.9->3.2.1/3.1.2" runs a
// single cell. Unknown versions are rejected, never normalized.
//
// -trace records a causal span for every cross-system hop of every
// case and writes them to <dir>/spans.jsonl; -failures output then
// includes each failure's reconstructed propagation chain. -metrics
// writes harness counters (per-plan, per-oracle, durations) in
// Prometheus text format ("-" for stdout, after the report; with -json,
// name a file to keep stdout a single JSON document).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/versions"
)

type confFlags map[string]string

func (c confFlags) String() string { return fmt.Sprint(map[string]string(c)) }

func (c confFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", v)
	}
	c[k] = val
	return nil
}

func main() {
	conf := confFlags{}
	family := flag.String("family", "", "restrict to a plan family: ss, sh, or hs")
	failures := flag.Int("failures", 0, "print up to N individual oracle failures")
	inputs := flag.String("inputs", "", "restrict inputs to those whose name has this prefix")
	parallel := flag.Int("parallel", 1, "worker goroutines executing test cases")
	wide := flag.Bool("wide", false, "also run the multi-column (wide-table) mode")
	sweep := flag.Bool("sweep", false, "sweep the fix configurations and diff the discrepancy profiles")
	partitions := flag.Bool("partitions", false, "also run the partitioned-table mode (candidate new discrepancies)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report (the same shape crossd's /result embeds) instead of text")
	logsDir := flag.String("logs", "", "write per-oracle failure logs (<family>_<oracle>_failed.json) to this directory")
	versionsSpec := flag.String("versions", "", "version-skew mode: \"matrix\" (default pair matrix), \"list\" (modeled versions and skew registry), or one writer->reader pair like \"2.3.0/2.3.9->3.2.1/3.1.2\"")
	flag.Var(conf, "conf", "Spark configuration override, key=value (repeatable)")
	cli.Observe()
	cli.Parse("crosstest")
	defer cli.Flush()

	corpus, err := core.CorpusInputs(*inputs)
	if err != nil {
		cli.Fatal(err)
	}
	opts := core.RunOptions{SparkConf: conf, Parallel: *parallel, Tracer: cli.Tracer, Metrics: cli.Metrics}
	if *family != "" {
		opts.Families = []string{*family}
	}
	plans, err := core.PlansIn(opts.Families)
	if err != nil {
		cli.Fatal(err)
	}

	if *versionsSpec != "" {
		runVersions(*versionsSpec, corpus, len(plans), opts)
		return
	}

	if !*jsonOut {
		fmt.Printf("Running cross-test: %d inputs x %d plans x 3 formats\n\n", len(corpus), len(plans))
	}
	result, err := core.Run(corpus, opts)
	if err != nil {
		cli.Fatal(err)
	}
	if *jsonOut {
		// The same core.ReportJSON shape crossd serves inside /result,
		// so CLI and service outputs are directly diffable.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result.Report.JSON()); err != nil {
			cli.Fatal(fmt.Errorf("encoding report: %w", err))
		}
		return
	}
	fmt.Print(result.Report.Render())

	if *logsDir != "" {
		names, err := result.WriteOracleLogs(*logsDir)
		if err != nil {
			cli.Fatal(fmt.Errorf("writing logs: %w", err))
		}
		fmt.Printf("\nWrote %d oracle failure logs to %s: %s\n", len(names), *logsDir, strings.Join(names, ", "))
	}

	if *failures > 0 {
		fmt.Printf("\nFirst %d oracle failures:\n", *failures)
		for i, f := range result.Failures {
			if i >= *failures {
				break
			}
			fmt.Printf("  [%s] %s: %s\n", f.Oracle, f.Case.Describe(), f.Detail)
			if f.Chain != "" {
				fmt.Printf("      propagation: %s\n", f.Chain)
			}
		}
	}

	if unknown := result.Report.UnknownSignatures(); len(unknown) > 0 {
		fmt.Printf("\nUnmapped signatures (candidate new discrepancies): %v\n", unknown)
	}

	if *sweep {
		cells, err := core.FixSweep(corpus, opts)
		if err != nil {
			cli.Fatal(fmt.Errorf("sweep: %w", err))
		}
		fmt.Println()
		fmt.Print(core.RenderSweep(cells))
	}

	if *partitions {
		pres, err := core.RunPartitions("orc", opts)
		if err != nil {
			cli.Fatal(fmt.Errorf("partitions: %w", err))
		}
		fmt.Printf("\nPartitioned-table mode: %d failures; candidate new discrepancies: %v\n",
			len(pres.Failures), pres.Report.UnknownSignatures())
		if len(pres.Failures) > 0 {
			fmt.Printf("  example: %s\n", pres.Failures[0].Detail)
		}
	}

	if *wide {
		wres, err := core.RunWide(corpus, opts)
		if err != nil {
			cli.Fatal(fmt.Errorf("wide: %w", err))
		}
		fmt.Printf("\nWide-table mode (%d columns, one table per plan and format): %d failures, %d distinct discrepancies %v\n",
			len(wres.Columns), len(wres.Failures), len(wres.Report.DistinctKnown()), wres.Report.DistinctKnown())
	}
}

// runVersions is the -versions mode: list the modeled versions, or run
// the skew matrix over the default pairs or one explicit pair.
func runVersions(spec string, corpus []core.Input, plans int, opts core.RunOptions) {
	var pairs []versions.Pair
	switch spec {
	case "list":
		fmt.Printf("Modeled Spark versions: %s\n", strings.Join(versions.SparkVersions(), ", "))
		fmt.Printf("Modeled Hive versions:  %s\n", strings.Join(versions.HiveVersions(), ", "))
		fmt.Printf("\nDefault writer->reader pairs:\n")
		for _, p := range versions.DefaultPairs() {
			label := p.String()
			if !p.Skewed() {
				label += " (baseline)"
			}
			fmt.Printf("  %s\n", label)
		}
		fmt.Printf("\nVersion-skew discrepancy registry:\n")
		for _, d := range inject.SkewRegistry() {
			fmt.Printf("  %-3s %-12s [%s] %s\n", d.ID, d.Anchor, d.Boundary, d.Title)
		}
		return
	case "matrix":
		pairs = versions.DefaultPairs()
	default:
		p, err := versions.ParsePair(spec)
		if err != nil {
			cli.Fatal(fmt.Errorf("-versions: %w", err))
		}
		pairs = []versions.Pair{p}
	}
	fmt.Printf("Running version-skew cross-test: %d inputs x %d plans x 3 formats x %d pairs\n\n",
		len(corpus), plans, len(pairs))
	m, err := core.RunSkewMatrix(corpus, pairs, opts)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Print(m.Render())
}
