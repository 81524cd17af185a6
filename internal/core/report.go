package core

import (
	"slices"
	"sort"

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

// number is the registry number of a known discrepancy, 0 otherwise.
func (f *Found) number() int {
	if f.Known == nil {
		return 0
	}
	return f.Known.Number
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
	slices.SortFunc(report.Found, func(a, b Found) int { return foundOrder(a.number(), a.Signature, b.number(), b.Signature) })
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

// Render produces the human-readable report: the per-oracle failure
// totals, the distinct discrepancies with their JIRA ids and category
// labels, and the category tallies of §8.2. It renders the report's
// JSON projection, the one rendering a merged cluster report also goes
// through.
func (r *Report) Render() string { return RenderReportJSON(r.JSON()) }
