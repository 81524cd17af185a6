// Command csistudy regenerates the paper's study artifacts — Tables 1
// through 9, Findings 1 through 13, the incident statistics of §3, and
// the CBS comparison of §5.1 — from the encoded dataset, the way the
// original artifact's reproduce_study notebook does.
//
// Usage:
//
//	csistudy [-tables] [-findings] [-incidents] [-cbs]
//
// With no flags, everything is printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"slices"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/study"
)

func main() {
	tables := flag.Bool("tables", false, "print Tables 1-9")
	findings := flag.Bool("findings", false, "print Findings 1-13 with recomputed statistics")
	incidents := flag.Bool("incidents", false, "print the §3 cloud-incident analysis")
	cbs := flag.Bool("cbs", false, "print the §5.1 CBS comparison")
	listDataset := flag.Bool("dataset", false, "list all 120 CSI failure records")
	cli.Parse("csistudy")

	all := !*tables && !*findings && !*incidents && !*cbs && !*listDataset
	failures, err := dataset.BuildFailures()
	if err != nil {
		cli.Fatal(err)
	}

	if all || *tables {
		for _, t := range study.AllTables(failures) {
			fmt.Println(t.Render())
		}
	}
	if all || *findings {
		ok := true
		for _, f := range study.Findings(failures) {
			fmt.Println(f.Render())
			ok = ok && f.OK()
		}
		if !ok {
			cli.Fatal(errors.New("some findings did not reproduce"))
		}
		fmt.Println("All quantitative findings reproduce the published statistics.")
	}
	if all || *incidents {
		printIncidents()
	}
	if *listDataset {
		fmt.Printf("CSI failure dataset (%d records; anchors are the issues the paper names):\n\n", len(failures))
		for i := range failures {
			fmt.Println("  " + failures[i].String())
		}
	}
	if all || *cbs {
		csiCount, depCount, controlPct := study.CBSComparison()
		fmt.Printf("\nCBS (2014) re-labeled slice: %d issues — %d CSI failures, %d dependency failures.\n",
			len(dataset.CBSSlice()), csiCount, depCount)
		fmt.Printf("Control-plane share of CBS CSI failures: %d%% (vs 17%% in this study's dataset).\n", controlPct)
	}
}

func printIncidents() {
	fmt.Printf("\n%s", incidentSample())
	incidents := dataset.CSIIncidents()
	fmt.Printf("\nCSI-failure-induced incidents: %d (%d%%), median duration %d minutes\n\n",
		len(incidents), len(incidents)*100/dataset.TotalIncidents(), study.MedianDuration(incidents))
	for _, inc := range incidents {
		cascade := " "
		if inc.CascadedExternally {
			cascade = "C"
		}
		fix := " "
		if inc.MentionedCodeFix {
			fix = "F"
		}
		fmt.Printf("  [%s%s] %-6s %4d min  %-10s  %s\n", cascade, fix, inc.Provider,
			inc.DurationMinutes, inc.Plane, inc.Title)
	}
	fmt.Println("\n  C = cascaded to external services, F = postmortem mentioned interaction code fixes")
}

// incidentSample renders the §3 sample line, providers in name order.
func incidentSample() string {
	out := fmt.Sprintf("Cloud incidents (§3): %d sampled", dataset.TotalIncidents())
	var providers []dataset.Provider
	for p := range dataset.IncidentSampleSizes {
		providers = append(providers, p)
	}
	slices.Sort(providers)
	for _, p := range providers {
		out += fmt.Sprintf("  %s=%d", p, dataset.IncidentSampleSizes[p])
	}
	return out
}
