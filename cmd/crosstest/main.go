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
// Prometheus text format ("-" for stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
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
	traceDir := flag.String("trace", "", "record causal spans and write them to <dir>/spans.jsonl")
	metricsFile := flag.String("metrics", "", "write Prometheus-text harness metrics to this file (\"-\" for stdout)")
	versionsSpec := flag.String("versions", "", "version-skew mode: \"matrix\" (default pair matrix), \"list\" (modeled versions and skew registry), or one writer->reader pair like \"2.3.0/2.3.9->3.2.1/3.1.2\"")
	flag.Var(conf, "conf", "Spark configuration override, key=value (repeatable)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Printf("crosstest %s\n", buildinfo.Get())
		return
	}

	corpus, err := core.BuildCorpus()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crosstest: %v\n", err)
		os.Exit(1)
	}
	if *inputs != "" {
		var filtered []core.Input
		for _, in := range corpus {
			if strings.HasPrefix(in.Name, *inputs) {
				filtered = append(filtered, in)
			}
		}
		corpus = filtered
	}
	opts := core.RunOptions{SparkConf: conf, Parallel: *parallel}
	if *family != "" {
		opts.Families = []string{*family}
	}
	if *traceDir != "" {
		opts.Tracer = obs.NewTracer(nil)
	}
	if *metricsFile != "" {
		opts.Metrics = obs.NewRegistry()
	}

	if *versionsSpec != "" {
		runVersions(*versionsSpec, corpus, opts)
		return
	}

	if !*jsonOut {
		fmt.Printf("Running cross-test: %d inputs x %d plans x 3 formats\n\n", len(corpus), plansIn(opts))
	}
	result, err := core.Run(corpus, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crosstest: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		// The same core.ReportJSON shape crossd serves inside /result,
		// so CLI and service outputs are directly diffable.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result.Report.JSON()); err != nil {
			fmt.Fprintf(os.Stderr, "crosstest: encoding report: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(result.Report.Render())

	if *logsDir != "" {
		names, err := result.WriteOracleLogs(*logsDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crosstest: writing logs: %v\n", err)
			os.Exit(1)
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

	if *traceDir != "" {
		path, err := opts.Tracer.WriteSpansFile(*traceDir, "spans.jsonl")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crosstest: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nWrote %d spans to %s\n", opts.Tracer.Len(), path)
	}
	if *metricsFile != "" {
		if err := opts.Metrics.WritePrometheusFile(*metricsFile); err != nil {
			fmt.Fprintf(os.Stderr, "crosstest: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if unknown := result.Report.UnknownSignatures(); len(unknown) > 0 {
		fmt.Printf("\nUnmapped signatures (candidate new discrepancies): %v\n", unknown)
	}

	if *sweep {
		names := []string{"default"}
		configs := map[string]map[string]string{"default": nil}
		for _, d := range inject.Registry() {
			if len(d.FixConf) == 0 {
				continue
			}
			name := fmt.Sprintf("fix-%d", d.Number)
			if _, seen := configs[name]; seen {
				continue
			}
			names = append(names, name)
			configs[name] = d.FixConf
		}
		cells, err := core.ConfigSweep(corpus, names, configs, core.RunOptions{Parallel: *parallel})
		if err != nil {
			fmt.Fprintf(os.Stderr, "crosstest: sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(core.RenderSweep(cells))
	}

	if *partitions {
		pres, err := core.RunPartitions("orc", opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crosstest: partitions: %v\n", err)
			os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "crosstest: wide: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nWide-table mode (%d columns, one table per plan and format): %d failures, %d distinct discrepancies %v\n",
			len(wres.Columns), len(wres.Failures), len(wres.Report.DistinctKnown()), wres.Report.DistinctKnown())
	}
}

// runVersions is the -versions mode: list the modeled versions, or run
// the skew matrix over the default pairs or one explicit pair.
func runVersions(spec string, corpus []core.Input, opts core.RunOptions) {
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
			fmt.Fprintf(os.Stderr, "crosstest: -versions: %v\n", err)
			os.Exit(1)
		}
		pairs = []versions.Pair{p}
	}
	fmt.Printf("Running version-skew cross-test: %d inputs x %d plans x 3 formats x %d pairs\n\n",
		len(corpus), plansIn(opts), len(pairs))
	m, err := core.RunSkewMatrix(corpus, pairs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crosstest: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(m.Render())
}

func plansIn(opts core.RunOptions) int {
	if len(opts.Families) == 0 {
		return len(core.Plans())
	}
	n := 0
	for _, p := range core.Plans() {
		for _, f := range opts.Families {
			if p.Family == f {
				n++
			}
		}
	}
	return n
}
