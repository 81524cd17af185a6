package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/inject"
)

// Configuration sweeping implements the §6.2.1 implication —
// "cross-system configuration testing, i.e., cross-testing multiple
// systems under deployment (or to-be-deployed) configurations" — as a
// first-class mode: the same corpus is run under a matrix of candidate
// deployment configurations and the per-configuration discrepancy
// profiles are compared.

// SweepCell is one configuration's outcome.
type SweepCell struct {
	Name     string
	Conf     map[string]string
	Distinct []int
	Failures int
	// Resolved lists discrepancies found under the baseline (first)
	// configuration but absent here.
	Resolved []int
	// Introduced lists discrepancies absent under the baseline but
	// present here — configuration changes can create discrepancies,
	// not only remove them.
	Introduced []int
}

// ConfigSweep runs the corpus under each configuration (the first entry
// is the baseline) and diffs the discrepancy profiles. opts supplies
// the execution context (cancellation, parallelism, observability);
// its SparkConf is replaced per cell.
func ConfigSweep(inputs []Input, names []string, configs map[string]map[string]string, opts RunOptions) ([]SweepCell, error) {
	var cells []SweepCell
	var baseline map[int]bool
	for i, name := range names {
		conf, ok := configs[name]
		if !ok && name != "default" {
			return nil, fmt.Errorf("core: unknown configuration %q", name)
		}
		cellOpts := opts
		cellOpts.SparkConf = conf
		res, err := Run(inputs, cellOpts)
		if err != nil {
			return nil, err
		}
		cell := SweepCell{
			Name:     name,
			Conf:     conf,
			Distinct: res.Report.DistinctKnown(),
			Failures: len(res.Failures),
		}
		present := map[int]bool{}
		for _, n := range cell.Distinct {
			present[n] = true
		}
		if i == 0 {
			baseline = present
		} else {
			for n := range baseline {
				if !present[n] {
					cell.Resolved = append(cell.Resolved, n)
				}
			}
			for n := range present {
				if !baseline[n] {
					cell.Introduced = append(cell.Introduced, n)
				}
			}
			sort.Ints(cell.Resolved)
			sort.Ints(cell.Introduced)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// FixSweep runs ConfigSweep over the registry's fix configurations:
// the default configuration as baseline, then every distinct registry
// fix configuration, named fix-<number>. crosstest -sweep and crossd's
// sweep jobs both run this matrix.
func FixSweep(inputs []Input, opts RunOptions) ([]SweepCell, error) {
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
	return ConfigSweep(inputs, names, configs, opts)
}

// RenderSweep formats the sweep as an aligned table.
func RenderSweep(cells []SweepCell) string {
	var b strings.Builder
	b.WriteString("Configuration sweep (cross-testing under deployment configurations)\n")
	fmt.Fprintf(&b, "%-26s %-9s %-9s %-18s %s\n", "configuration", "distinct", "failures", "resolved-vs-base", "introduced")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-26s %-9d %-9d %-18s %s\n",
			c.Name, len(c.Distinct), c.Failures, intsOrDash(c.Resolved), intsOrDash(c.Introduced))
	}
	return b.String()
}

func intsOrDash(s []int) string {
	if len(s) == 0 {
		return "-"
	}
	parts := make([]string, len(s))
	for i, n := range s {
		parts[i] = fmt.Sprintf("#%d", n)
	}
	return strings.Join(parts, ",")
}
