package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/csi"
	"repro/internal/inject"
)

// Found is one distinct discrepancy discovered by a run: a failure
// cluster mapped (when possible) onto the registry of known issues.
type Found struct {
	Signature string
	Known     *inject.Discrepancy // nil for signatures outside the registry
	Failures  []Failure
	Oracles   map[csi.Oracle]int
}

// Example returns a representative failure detail.
func (f *Found) Example() string {
	if len(f.Failures) == 0 {
		return ""
	}
	return f.Failures[0].Case.Describe() + ": " + f.Failures[0].Detail
}

// Report clusters a run's failures into distinct discrepancies.
type Report struct {
	Found    []Found
	ByOracle map[csi.Oracle]int
}

func buildReport(failures []Failure) *Report {
	bySig := inject.BySignature()
	byOracle := map[csi.Oracle]int{}
	// The first pass sizes each cluster, so the second can carve every
	// cluster at its exact size from one slab. Each carved slice is
	// capped at its length: appending to one never writes into the next.
	cluster := map[string]int{} // signature -> index into found
	var found []Found
	var sizes []int
	for _, f := range failures {
		byOracle[f.Oracle]++
		i, ok := cluster[f.Signature]
		if !ok {
			i = len(found)
			cluster[f.Signature] = i
			c := Found{Signature: f.Signature, Oracles: map[csi.Oracle]int{}}
			if d, known := bySig[f.Signature]; known {
				c.Known = &d
			}
			found = append(found, c)
			sizes = append(sizes, 0)
		}
		sizes[i]++
		found[i].Oracles[f.Oracle]++
	}
	slab := make([]Failure, len(failures))
	for i, n := range sizes {
		found[i].Failures, slab = slab[:0:n], slab[n:]
	}
	for _, f := range failures {
		c := &found[cluster[f.Signature]]
		c.Failures = append(c.Failures, f)
	}
	report := &Report{Found: found, ByOracle: byOracle}
	sort.Slice(report.Found, func(i, j int) bool {
		a, b := report.Found[i], report.Found[j]
		switch {
		case a.Known != nil && b.Known != nil:
			return a.Known.Number < b.Known.Number
		case a.Known != nil:
			return true
		case b.Known != nil:
			return false
		default:
			return a.Signature < b.Signature
		}
	})
	return report
}

// DistinctKnown returns the registry numbers of the known discrepancies
// the run exposed.
func (r *Report) DistinctKnown() []int {
	var out []int
	for _, f := range r.Found {
		if f.Known != nil {
			out = append(out, f.Known.Number)
		}
	}
	sort.Ints(out)
	return out
}

// UnknownSignatures returns clusters that did not map to the registry —
// candidate new discrepancies.
func (r *Report) UnknownSignatures() []string {
	var out []string
	for _, f := range r.Found {
		if f.Known == nil {
			out = append(out, f.Signature)
		}
	}
	return out
}

// CategoryCounts tallies §8.2 category membership over the found known
// discrepancies.
func (r *Report) CategoryCounts() map[inject.Category]int {
	return inject.CategoryCounts(r.DistinctKnown())
}

// ConnectorShare reports how many of the found discrepancies live in
// dedicated connector modules versus generic engine code — Finding
// 13/14's observation that connectors are a small but failure-dense
// starting point for CSI testing.
func (r *Report) ConnectorShare() (inConnector, generic int) {
	for _, f := range r.Found {
		if f.Known == nil {
			continue
		}
		if f.Known.InConnector {
			inConnector++
		} else {
			generic++
		}
	}
	return inConnector, generic
}

// Render produces the human-readable report: the per-oracle failure
// totals, the distinct discrepancies with their JIRA ids and category
// labels, and the category tallies of §8.2.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-system testing report (Spark-Hive data plane)\n")
	fmt.Fprintf(&b, "====================================================\n\n")
	fmt.Fprintf(&b, "Oracle failures: wr=%d eh=%d difft=%d\n\n",
		r.ByOracle[csi.OracleWriteRead], r.ByOracle[csi.OracleErrorHandling], r.ByOracle[csi.OracleDifferential])
	fmt.Fprintf(&b, "Distinct discrepancies: %d\n\n", len(r.Found))
	for _, f := range r.Found {
		if f.Known != nil {
			id := f.Known.JIRA
			if id == "" {
				id = "(unreported)"
			}
			fmt.Fprintf(&b, "#%-2d %-12s %s\n", f.Known.Number, id, f.Known.Title)
			if len(f.Known.Categories) > 0 {
				cats := make([]string, len(f.Known.Categories))
				for i, c := range f.Known.Categories {
					cats[i] = string(c)
				}
				fmt.Fprintf(&b, "    categories: %s\n", strings.Join(cats, ", "))
			}
			if len(f.Known.FixConf) > 0 {
				keys := make([]string, 0, len(f.Known.FixConf))
				for k := range f.Known.FixConf {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, "    resolved by: %s=%s\n", k, f.Known.FixConf[k])
				}
			}
		} else {
			fmt.Fprintf(&b, "??  %-12s (not in registry)\n", f.Signature)
		}
		if f.Known != nil && f.Known.Module != "" {
			fmt.Fprintf(&b, "    module: %s\n", f.Known.Module)
		}
		fmt.Fprintf(&b, "    failures: %d (wr=%d eh=%d difft=%d)\n", len(f.Failures),
			f.Oracles[csi.OracleWriteRead], f.Oracles[csi.OracleErrorHandling], f.Oracles[csi.OracleDifferential])
		fmt.Fprintf(&b, "    example: %s\n\n", f.Example())
	}
	inConn, generic := r.ConnectorShare()
	fmt.Fprintf(&b, "Module locality (Finding 13/14): %d in dedicated connectors, %d in generic engine code\n\n", inConn, generic)
	fmt.Fprintf(&b, "Category tallies (paper: 2/2/5/7/8):\n")
	counts := r.CategoryCounts()
	for _, c := range inject.Categories() {
		fmt.Fprintf(&b, "  %-36s %d/%d\n", c, counts[c], inject.PaperCategoryCounts[c])
	}
	return b.String()
}
