package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/inject"
)

// RenderReportJSON renders the human-readable report from its
// machine-readable projection: the per-oracle failure totals, the
// distinct discrepancies with their JIRA ids and category labels, and
// the category tallies of §8.2. It is the report's one renderer —
// Report.Render and a cluster coordinator's merged report both go
// through it, so a merged report gets the same text (and therefore the
// same ReportSHA) the single-node run produces. The one field it needs
// that FoundJSON does not carry — the resolving configuration — is
// recovered from the registry by signature.
func RenderReportJSON(rj ReportJSON) string {
	bySig := inject.BySignature()
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-system testing report (Spark-Hive data plane)\n")
	fmt.Fprintf(&b, "====================================================\n\n")
	fmt.Fprintf(&b, "Oracle failures: wr=%d eh=%d difft=%d\n\n",
		rj.OracleFailures["wr"], rj.OracleFailures["eh"], rj.OracleFailures["difft"])
	fmt.Fprintf(&b, "Distinct discrepancies: %d\n\n", rj.Distinct)
	for _, f := range rj.Found {
		if f.Known != 0 {
			id := f.JIRA
			if id == "" {
				id = "(unreported)"
			}
			fmt.Fprintf(&b, "#%-2d %-12s %s\n", f.Known, id, f.Title)
			if len(f.Categories) > 0 {
				fmt.Fprintf(&b, "    categories: %s\n", strings.Join(f.Categories, ", "))
			}
			if d, ok := bySig[f.Signature]; ok && len(d.FixConf) > 0 {
				keys := make([]string, 0, len(d.FixConf))
				for k := range d.FixConf {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, "    resolved by: %s=%s\n", k, d.FixConf[k])
				}
			}
		} else {
			fmt.Fprintf(&b, "??  %-12s (not in registry)\n", f.Signature)
		}
		if f.Known != 0 && f.Module != "" {
			fmt.Fprintf(&b, "    module: %s\n", f.Module)
		}
		fmt.Fprintf(&b, "    failures: %d (wr=%d eh=%d difft=%d)\n", f.Failures,
			f.Oracles["wr"], f.Oracles["eh"], f.Oracles["difft"])
		fmt.Fprintf(&b, "    example: %s\n\n", f.Example)
	}
	fmt.Fprintf(&b, "Module locality (Finding 13/14): %d in dedicated connectors, %d in generic engine code\n\n", rj.InConnector, rj.Generic)
	fmt.Fprintf(&b, "Category tallies (paper: 2/2/5/7/8):\n")
	for _, c := range inject.Categories() {
		fmt.Fprintf(&b, "  %-36s %d/%d\n", c, rj.Categories[string(c)], inject.PaperCategoryCounts[c])
	}
	return b.String()
}
