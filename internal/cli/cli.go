// Package cli is the command-line surface the repository's commands
// share: -version on every command, -trace and -metrics on the ones
// that record spans and metrics, and one error exit. Each of these
// flags is declared here once, so the commands cannot drift apart.
//
// A command calls Observe (if it records spans or metrics), then
// Parse, then defers Flush:
//
//	cli.Observe()
//	cli.Parse("crosstest")
//	defer cli.Flush()
package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

var (
	name        string
	version     = flag.Bool("version", false, "print build information and exit")
	metricsFile string

	// TraceDir is the -trace directory, "" when the flag is absent.
	TraceDir string
	// Tracer records spans under -trace and is nil otherwise, so an
	// untraced run pays nothing for it.
	Tracer *obs.Tracer
	// Metrics collects metrics under -metrics and is nil otherwise.
	Metrics *obs.Registry
)

// Observe registers -trace and -metrics; call it before Parse. Each
// flag creates its tracer or registry only when it is given.
func Observe() {
	flag.Func("trace", "record causal spans and write them as JSON lines into this directory", func(dir string) error {
		if TraceDir = dir; dir != "" {
			Tracer = obs.NewTracer(nil)
		}
		return nil
	})
	flag.Func("metrics", "write Prometheus-text metrics to this file (\"-\" for stdout)", func(dest string) error {
		if metricsFile = dest; dest != "" {
			Metrics = obs.NewRegistry()
		}
		return nil
	})
}

// Parse parses the command line of the command called cmd. Under
// -version it prints "<cmd> <build>" and exits 0.
func Parse(cmd string) {
	name = cmd
	flag.Parse()
	if *version {
		fmt.Printf("%s %s\n", name, buildinfo.Get())
		os.Exit(0)
	}
}

// Flush writes what -trace and -metrics asked for: the recorded spans
// to <dir>/spans.jsonl, announced on stderr so stdout carries only
// the report, and the metrics to their file.
func Flush() {
	if Tracer != nil {
		path, err := Tracer.WriteSpansFile(TraceDir, "spans.jsonl")
		if err != nil {
			Fatal(fmt.Errorf("writing spans: %w", err))
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d spans to %s\n", name, Tracer.Len(), path)
	}
	if Metrics != nil {
		if err := Metrics.WritePrometheusFile(metricsFile); err != nil {
			Fatal(fmt.Errorf("writing metrics: %w", err))
		}
	}
}

// Fatal prints "<cmd>: <err>" on stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}
