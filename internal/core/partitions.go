package core

import (
	"fmt"

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

// partitionPlans are the Figure 6 plans whose write interface supports
// partitioned DDL (the DataFrame writer is excluded: partitioned saves
// go through SQL in this simulator, as in many real pipelines).
func partitionPlans() []Plan {
	var out []Plan
	for _, p := range Plans() {
		if p.Write != DataFrame {
			out = append(out, p)
		}
	}
	return out
}

// RunPartitions executes the partition-mode cross-test over one format
// and applies the write-read and differential oracles to the partition
// value read back.
func RunPartitions(format string, opts RunOptions) (*RunResult, error) {
	d, err := opts.deployment()
	if err != nil {
		return nil, err
	}
	plans := partitionPlans()
	var cases []*CaseResult
	for _, pin := range PartitionCorpus() {
		// Adapt to the harness's Input carrier: the column under test is
		// the partition column.
		in := &Input{
			ID:       pin.ID,
			Name:     "partition_" + pin.Name,
			Type:     sqlval.String,
			Literal:  pin.Literal,
			Valid:    true,
			Expected: sqlval.StringVal(pin.Value),
		}
		for _, plan := range plans {
			table := fmt.Sprintf("pt_%s_%s_%02d", plan.Name(), format, pin.ID)
			cases = append(cases, &CaseResult{Input: in, Plan: plan, Format: format, Table: table})
		}
	}
	execute := func(c *CaseResult) {
		c.Span = d.caseSpan(opts.Tracer, c.Plan, c.Format, "input", c.Input.Name, "table", c.Table)
		c.Write = createInsert(d.Spark, d.Hive, c.Span, c.Plan.Write,
			"CREATE TABLE "+c.Table+" (N INT) PARTITIONED BY (Tag STRING) STORED AS "+c.Format,
			"INSERT INTO "+c.Table+" VALUES (1, "+c.Input.Literal+")")
		if c.Write.Err == nil {
			// The partition column comes last in a SELECT *.
			read := readVia(d.ReadSpark, d.ReadHive, c.Span, c.Plan.Read, c.Table)
			c.Read = read.column(len(read.Row) - 1)
		}
		c.Span.Fail(c.Write.Err).Fail(c.Read.Err).End()
		d.release(c.Table)
	}
	if err := RunPool(opts.Context, opts.Parallel, cases, execute); err != nil {
		return nil, err
	}

	var failures []Failure
	for _, c := range cases {
		switch {
		case c.Write.Err != nil:
			failures = append(failures, Failure{
				Oracle: csi.OracleWriteRead, Case: c,
				Signature: classifyError(c.Write.Err),
				Detail:    fmt.Sprintf("partitioned write failed: %v", c.Write.Err),
			})
		case c.Read.Err != nil:
			failures = append(failures, Failure{
				Oracle: csi.OracleWriteRead, Case: c,
				Signature: classifyError(c.Read.Err),
				Detail:    fmt.Sprintf("partitioned read failed: %v", c.Read.Err),
			})
		case !c.Read.HasRow:
			failures = append(failures, Failure{
				Oracle: csi.OracleWriteRead, Case: c,
				Signature: "row-missing", Detail: "partition row not returned",
			})
		case !c.Read.Value.EqualData(c.Input.Expected):
			failures = append(failures, Failure{
				Oracle: csi.OracleWriteRead, Case: c,
				Signature: "partition-path-escaping",
				Detail: fmt.Sprintf("partition value round trip: wrote %s, read %s",
					c.Input.Expected, c.Read.Value),
			})
		}
	}
	// Differential across plans per input, in input order: each input's
	// cases are one consecutive run of len(plans).
	for i := 0; i < len(cases); i += len(plans) {
		group := cases[i : i+len(plans)]
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
	attachChains(opts.Tracer, failures)
	emitFailures(opts.OnFailure, failures)
	return &RunResult{Cases: cases, Failures: failures, Report: buildReport(failures)}, nil
}
