package core

import (
	"fmt"
	"slices"

	"repro/internal/csi"
	"repro/internal/sqlval"
)

// Partition-mode testing extends the Figure 6 setup to partitioned
// tables: partition values travel through directory names rather than
// file payloads, crossing a different encoding boundary (path
// escaping). The §8 artifact did not cover partitions — this mode is
// the "more general tool" direction, and the divergent escaping it
// exposes clusters as an UNKNOWN signature: a candidate new
// discrepancy rather than one of the known 15.

// PartitionInput is one partition value under test.
type PartitionInput struct {
	ID      int
	Name    string
	Literal string // SQL literal for the STRING partition value
	Value   string // the expected decoded value
}

// PartitionCorpus returns partition values covering the path-escaping
// hazard classes: plain, whitespace, path separators, the escape
// character itself, unicode, and NULL.
func PartitionCorpus() []PartitionInput {
	return []PartitionInput{
		{0, "plain", "'daily'", "daily"},
		{1, "space", "'big sale'", "big sale"},
		{2, "slash", "'a/b'", "a/b"},
		{3, "equals", "'k=v'", "k=v"},
		{4, "percent", "'100%'", "100%"},
		{5, "unicode", "'ümlaut'", "ümlaut"},
		{6, "colon", "'12:30'", "12:30"},
		{7, "hash", "'tag#1'", "tag#1"},
	}
}

// RunPartitions executes the partition-mode cross-test over one format
// and applies the write-read and differential oracles to the partition
// value read back.
func RunPartitions(format string, opts RunOptions) (*RunResult, error) {
	return runPartitions(format, PartitionCorpus(), opts)
}

// runPartitions is RunPartitions over the given partition values: one
// partitioned unit per value and plan.
func runPartitions(format string, corpus []PartitionInput, opts RunOptions) (*RunResult, error) {
	l, err := opts.loop(nil, nil)
	if err != nil {
		return nil, err
	}
	// The plans whose write interface supports partitioned DDL (the
	// DataFrame writer is excluded: partitioned saves go through SQL in
	// this simulator, as in many real pipelines).
	plans := slices.DeleteFunc(Plans(), func(p Plan) bool { return p.Write == DataFrame })
	cases := make([]*CaseResult, 0, len(corpus)*len(plans))
	for _, pin := range corpus {
		// Adapt to the harness's Input carrier: the column under test is
		// the partition column.
		in := &Input{ID: pin.ID, Name: "partition_" + pin.Name, Type: sqlval.String, Literal: pin.Literal,
			Valid: true, Expected: sqlval.StringVal(pin.Value)}
		for _, plan := range plans {
			cases = append(cases, &CaseResult{Input: in, Plan: plan, Format: format,
				Table: caseTable("pt_", plan.Name(), format, pin.ID, 2)})
		}
	}
	l.oracles = func(cases []*CaseResult) []Failure { return partitionOracles(cases, len(plans)) }
	return l.run(cases, len(cases), caseUnits(cases, true))
}

// partitionOracles judges partition cases: the write-read oracle on the
// partition value read back, then the differential oracle across the
// plans of each input, whose cases are one consecutive run of plans.
func partitionOracles(cases []*CaseResult, plans int) []Failure {
	var failures []Failure
	for _, c := range cases {
		var sig, detail string
		switch {
		case c.Write.Err != nil:
			sig, detail = classifyError(c.Write.Err), fmt.Sprintf("partitioned write failed: %v", c.Write.Err)
		case c.Read.Err != nil:
			sig, detail = classifyError(c.Read.Err), fmt.Sprintf("partitioned read failed: %v", c.Read.Err)
		case !c.Read.HasRow:
			sig, detail = "row-missing", "partition row not returned"
		case !c.Read.Value.EqualData(c.Input.Expected):
			sig, detail = "partition-path-escaping", fmt.Sprintf("partition value round trip: wrote %s, read %s", c.Input.Expected, c.Read.Value)
		default:
			continue
		}
		failures = append(failures, Failure{Oracle: csi.OracleWriteRead, Case: c, Signature: sig, Detail: detail})
	}
	for i := 0; i < len(cases); i += plans {
		group := cases[i : i+plans]
		base := group[0]
		baseKey := outcomeKey(base)
		for _, peer := range group[1:] {
			if outcomeKey(peer) == baseKey {
				continue
			}
			failures = append(failures, Failure{
				Oracle: csi.OracleDifferential, Case: base, Peer: peer,
				Signature: "partition-path-escaping",
				Detail: fmt.Sprintf("partition value inconsistent: %s [%s] vs %s [%s]",
					base.Describe(), baseKey, peer.Describe(), outcomeKey(peer)),
			})
		}
	}
	return failures
}
