// Package redundancy prototypes the CSI fault-tolerance direction the
// paper proposes in §5.2 and §10: cross-system interactions are single
// points of failure despite redundancy in components and data, and "a
// potential direction is to leverage the diversity of existing
// interfaces to build interaction redundancy across systems."
//
// The package implements two strategies over a co-deployment's read
// interfaces:
//
//   - failover: try interfaces in preference order until one serves
//     the request, recording which discrepancies were masked;
//   - voting: read through every interface, serve the majority value,
//     and surface the disagreement — turning a silent data-plane
//     discrepancy into an observable signal at serving time.
package redundancy

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sqlval"
)

// Attempt records one interface's outcome during a redundant read.
type Attempt struct {
	Interface core.Iface
	Err       error
	HasRow    bool
	Value     sqlval.Value
}

// attemptOf records a read outcome, copying out the value it points at.
func attemptOf(iface core.Iface, out core.ReadOutcome) Attempt {
	att := Attempt{Interface: iface, Err: out.Err, HasRow: out.HasRow}
	if out.HasRow {
		att.Value = *out.Value
	}
	return att
}

func (a Attempt) String() string {
	if a.Err != nil {
		return fmt.Sprintf("%s: error: %v", a.Interface, a.Err)
	}
	if !a.HasRow {
		return fmt.Sprintf("%s: no row", a.Interface)
	}
	return fmt.Sprintf("%s: %s", a.Interface, a.Value)
}

// Result is the outcome of a redundant read.
type Result struct {
	// Served is the interface whose answer was returned.
	Served core.Iface
	// Value/HasRow is the served answer.
	Value  sqlval.Value
	HasRow bool
	// Attempts records every interface consulted.
	Attempts []Attempt
	// MaskedFailures counts interfaces that errored before the served
	// one (failover) or deviated from the majority (voting).
	MaskedFailures int
	// Disagreements describes value-level divergence among successful
	// interfaces — a discrepancy detected at serving time.
	Disagreements []string
}

// ErrAllInterfacesFailed reports that no interface could serve.
var ErrAllInterfacesFailed = fmt.Errorf("redundancy: all interfaces failed")

// ReadWithFailover tries the interfaces in order, returning the first
// successful read. Interfaces that fail before the served one are the
// masked CSI failures — the downstream is available, only the
// particular interaction is broken, which is exactly the opportunity
// §5.2 identifies.
func ReadWithFailover(d *core.Deployment, table string, order ...core.Iface) (Result, error) {
	if len(order) == 0 {
		order = []core.Iface{core.SparkSQL, core.DataFrame, core.HiveQL}
	}
	res := Result{}
	for _, iface := range order {
		out := d.Read(iface, table)
		att := attemptOf(iface, out)
		res.Attempts = append(res.Attempts, att)
		if out.Err != nil {
			res.MaskedFailures++
			continue
		}
		res.Served = iface
		res.Value = att.Value
		res.HasRow = att.HasRow
		return res, nil
	}
	return res, fmt.Errorf("%w: table %s via %v", ErrAllInterfacesFailed, table, order)
}

// ReadWithVoting reads through every interface and serves the majority
// answer (by data equality). Ties are broken by interface order.
// Minority answers and errors are reported as disagreements.
func ReadWithVoting(d *core.Deployment, table string, ifaces ...core.Iface) (Result, error) {
	if len(ifaces) == 0 {
		ifaces = []core.Iface{core.SparkSQL, core.DataFrame, core.HiveQL}
	}
	res := Result{}
	type bucket struct {
		attempt Attempt
		votes   int
	}
	var buckets []*bucket
	for _, iface := range ifaces {
		out := d.Read(iface, table)
		att := attemptOf(iface, out)
		res.Attempts = append(res.Attempts, att)
		if out.Err != nil {
			continue
		}
		placed := false
		for _, b := range buckets {
			if sameAnswer(b.attempt, att) {
				b.votes++
				placed = true
				break
			}
		}
		if !placed {
			buckets = append(buckets, &bucket{attempt: att, votes: 1})
		}
	}
	if len(buckets) == 0 {
		return res, fmt.Errorf("%w: table %s via %v", ErrAllInterfacesFailed, table, ifaces)
	}
	best := buckets[0]
	for _, b := range buckets[1:] {
		if b.votes > best.votes {
			best = b
		}
	}
	res.Served = best.attempt.Interface
	res.Value = best.attempt.Value
	res.HasRow = best.attempt.HasRow
	for _, att := range res.Attempts {
		if att.Err != nil {
			res.MaskedFailures++
			res.Disagreements = append(res.Disagreements,
				fmt.Sprintf("%s failed while peers served: %v", att.Interface, att.Err))
			continue
		}
		if !sameAnswer(best.attempt, att) {
			res.MaskedFailures++
			res.Disagreements = append(res.Disagreements,
				fmt.Sprintf("%s returned %s, majority returned %s", att.Interface, att.Value, best.attempt.Value))
		}
	}
	return res, nil
}

func sameAnswer(a, b Attempt) bool {
	if a.HasRow != b.HasRow {
		return false
	}
	if !a.HasRow {
		return true
	}
	return a.Value.EqualData(b.Value) && a.Value.Kind() == b.Value.Kind()
}

// CoverageReport quantifies how much interaction redundancy buys on a
// workload: of the reads that fail through one fixed interface, how
// many a redundant reader serves anyway.
type CoverageReport struct {
	Reads            int
	PrimaryFailures  int
	ServedByFailover int
	StillFailing     int
}

// String renders the report.
func (r CoverageReport) String() string {
	return fmt.Sprintf("reads=%d primary-failures=%d served-by-failover=%d still-failing=%d",
		r.Reads, r.PrimaryFailures, r.ServedByFailover, r.StillFailing)
}

// MeasureFailoverCoverage writes each input through writeIface into its
// own table and reads it back with primary as the preferred interface,
// falling back to the rest. It reports how many primary-interface read
// failures the redundancy masked.
func MeasureFailoverCoverage(inputs []core.Input, writeIface, primary core.Iface, format string) (CoverageReport, error) {
	d := core.NewDeployment()
	order := []core.Iface{primary}
	for _, i := range []core.Iface{core.SparkSQL, core.DataFrame, core.HiveQL} {
		if i != primary {
			order = append(order, i)
		}
	}
	report := CoverageReport{}
	for idx := range inputs {
		in := inputs[idx]
		table := fmt.Sprintf("t_red_%04d", in.ID)
		if w := d.Write(writeIface, table, format, in); w.Err != nil {
			continue // write-side failures are not the read path's to mask
		}
		report.Reads++
		primaryOut := d.Read(primary, table)
		if primaryOut.Err == nil {
			continue
		}
		report.PrimaryFailures++
		res, err := ReadWithFailover(d, table, order...)
		if err != nil {
			report.StillFailing++
			continue
		}
		if res.Served != primary && strings.TrimSpace(string(res.Served)) != "" {
			report.ServedByFailover++
		}
	}
	return report, nil
}
