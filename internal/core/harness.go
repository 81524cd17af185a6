package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/csi"
	"repro/internal/obs"
	"repro/internal/versions"
)

// CaseResult is one executed test case: an input written through one
// interface and read back through another, over one backend format.
type CaseResult struct {
	Input  *Input
	Plan   Plan
	Format string
	Table  string
	Write  WriteOutcome
	Read   ReadOutcome
	// Skew probes, populated only on version-skew runs: WriterRead is
	// the main table read back through the writer stack (the pre-upgrade
	// control), RWWrite/RWRead are a sibling "<table>_rw" written and
	// read entirely on the reader stack (the post-upgrade control).
	WriterRead ReadOutcome
	RWWrite    WriteOutcome
	RWRead     ReadOutcome
	// Span is the case's root span when the run traces (nil otherwise);
	// the spans beneath it are the case's cross-system interactions.
	Span *obs.Span
	// rank is the case's position in the run's global enumeration
	// order; a failure of the case renders it into the failure's Rank.
	// A sharded run stamps the same coordinates its unsharded
	// equivalent would, which is what lets a coordinator merge
	// sub-reports and pick the same representative failures the
	// single-node run picks.
	rank rankCoord
}

// Describe renders the case coordinates for logs.
func (c *CaseResult) Describe() string {
	return c.Plan.Name() + "/" + c.Format + " input=" + c.Input.Name + "(" + c.Input.Literal + ")"
}

// Failure is one oracle violation.
type Failure struct {
	Oracle    csi.Oracle
	Case      *CaseResult
	Peer      *CaseResult // differential oracle: the differing case
	Signature string
	Detail    string
	// Chain is the rendered cross-system propagation chain of the
	// failing case (empty when the run did not trace).
	Chain string
	// Rank orders this failure within the run's deterministic failure
	// sequence: an oracle-block tag ("0" write/read, "1" error handling,
	// "2" differential across interfaces, "3" across formats) followed
	// by the case rank (or, for differential failures, the probe-group
	// key and peer ordinal), 0x1f-separated. Sorting any subset of a
	// run's failures by Rank reproduces their relative emission order,
	// so shards of a split job agree on which failure came first.
	Rank string
}

// RunOptions configure a harness run.
type RunOptions struct {
	// Context, when non-nil, makes the run cancellable: no new case is
	// dispatched after cancellation and the run returns ctx.Err(). A
	// cancelled run produces no result — partial oracle verdicts would
	// not be reproducible. Nil means run to completion.
	Context context.Context
	// SparkConf overrides applied to the deployment's Spark sessions
	// before testing — "testing systems under the deployment
	// configuration (not the default configuration)". On skew runs the
	// overrides apply to both the writer and reader stacks, after the
	// version profiles.
	SparkConf map[string]string
	// Versions, when non-nil, runs the corpus on a version-skew
	// deployment: writes on the writer stack, reads on the reader
	// stack, plus the two skew probes per case feeding the version-skew
	// oracle. Unknown version profiles are rejected.
	Versions *versions.Pair
	// Families restricts the run to the given plan families
	// ("ss", "sh", "hs"); empty means all.
	Families []string
	// Parallel sets the number of worker goroutines executing test
	// cases (each case uses its own table; the engines are safe for
	// concurrent use). Values below 2 run sequentially.
	Parallel int
	// Tracer, when non-nil, records a causal span tree per case; each
	// Failure then carries the rendered cross-system propagation chain.
	Tracer *obs.Tracer
	// Metrics, when non-nil, records per-case metrics into the registry.
	// Run records the crosstest_* series: case counts per plan and
	// format and per value-checking oracle, case durations per plan
	// family, failures per oracle and the distinct discrepancies.
	// RunTables records crossfuzz_cases_total, crossfuzz_plan_cases_total
	// and crossfuzz_case_duration_ms, one count per table case. RunWide
	// and RunPartitions record none.
	Metrics *obs.Registry
	// OnFailure, when non-nil, is invoked once per oracle failure after
	// the oracles run, in the run's deterministic failure order and
	// from the calling goroutine. Streaming consumers (crossd) use it
	// to forward failures as they are established.
	OnFailure func(Failure)
}

// loop stands up the system under test every harness entry point runs
// on — a skew deployment when Versions is set, the SparkConf overrides
// applied and the Tracer attached — and the case loop over it, which
// judges with oracles and records series when Metrics is set.
func (opts RunOptions) loop(series *caseSeries, oracles func([]*CaseResult) []Failure) (*caseLoop, error) {
	if opts.Parallel < 0 {
		return nil, fmt.Errorf("core: Parallel must be non-negative, got %d", opts.Parallel)
	}
	d := NewDeployment()
	if opts.Versions != nil {
		var err error
		if d, err = NewSkewDeployment(*opts.Versions); err != nil {
			return nil, err
		}
	}
	d.SetConf(opts.SparkConf)
	if opts.Tracer != nil {
		d.SetTracer(opts.Tracer)
	}
	if opts.Metrics == nil {
		series = nil
	}
	return &caseLoop{d: d, opts: opts, series: series, oracles: oracles}, nil
}

// RunResult is the outcome of a harness run.
type RunResult struct {
	Cases    []*CaseResult
	Failures []Failure
	Report   *Report
}

// Run executes the full cross-test: every input × plan × format, then
// applies the three oracles and clusters failures into discrepancies.
func Run(inputs []Input, opts RunOptions) (*RunResult, error) {
	return run(inputs, opts, nil)
}

// run is Run, sharing the reader-stack control probes through probes
// when a skew matrix passes a table (nil otherwise).
func run(inputs []Input, opts RunOptions, probes *readerProbes) (*RunResult, error) {
	l, err := opts.loop(&crosstestSeries, applyOracles)
	if err != nil {
		return nil, err
	}
	// Plan positions are indexes into the unfiltered Plans() slice: a
	// family-restricted run (a corpus shard) stamps the same case ranks
	// the full run would, so shard failure order merges back into the
	// global order.
	planPos := map[string]int{}
	for i, p := range Plans() {
		planPos[p.Name()] = i
	}
	plans, err := PlansIn(opts.Families)
	if err != nil {
		return nil, err
	}

	// The cases live in one slab, as columnResults' results do.
	formats := Formats()
	slab := make([]CaseResult, 0, len(inputs)*len(plans)*len(formats))
	cases := make([]*CaseResult, 0, cap(slab))
	for i := range inputs {
		in := &inputs[i]
		for _, plan := range plans {
			for fi, format := range formats {
				slab = append(slab, CaseResult{
					Input: in, Plan: plan, Format: format, Table: caseTable("t_", plan.Name(), format, in.ID, 4),
					rank: rankCoord{ord: int64(i), plan: int32(planPos[plan.Name()]), col: int32(fi)},
				})
				cases = append(cases, &slab[len(slab)-1])
			}
		}
	}
	// The first cell of a matrix to read on a stack fills its probe
	// table; a later cell copies from it. Each case owns the slot at its
	// slab position, which is its unit's.
	l.skew, l.probes, l.copyProbes = l.d.Pair != nil, probes, probes != nil && probes.slots != nil
	if probes != nil && !l.copyProbes {
		probes.slots = make([]rwProbe, len(cases))
	}
	return l.run(cases, len(cases), caseUnits(cases, false))
}

// A unit is one table of a harness run: created with cols and written
// through plan's write interface in format, read back through its read
// interface, and projected onto res, column i into result i. A Run case
// is a one-column unit (nil cols: ColumnName carrying res[0]'s input),
// a table case an N-column unit, and a partition case a unit
// partitioned by res[0]'s input beside an INT column; its one result
// takes the partition column, which a SELECT * returns last.
type unit struct {
	plan          Plan
	format, table string
	cols          []WideColumn
	partition     bool
	res           []*CaseResult
	attrs         [4]string // the span's two key/value attributes
}

// caseUnits describes each of cases as a unit of its own.
func caseUnits(cases []*CaseResult, partition bool) func(int) unit {
	return func(i int) unit {
		c := cases[i]
		return unit{plan: c.Plan, format: c.Format, table: c.Table, partition: partition,
			res: cases[i : i+1], attrs: [4]string{"input", c.Input.Name, "table", c.Table}}
	}
}

// caseLoop is the harness's one case loop, set up for one entry point:
// exec runs each unit, and judge, the one tail, judges their results
// with oracles, then with the version-skew oracle when skew is set.
type caseLoop struct {
	d       *Deployment
	opts    RunOptions
	series  *caseSeries // nil records none
	oracles func([]*CaseResult) []Failure
	// skew, set for Run on a skew deployment, runs probeSkew on each
	// unit's one result, sharing the reader-stack control through
	// probes when a matrix passes its stack's table.
	skew       bool
	probes     *readerProbes
	copyProbes bool
}

// caseSeries names the metric series an entry point records, per unit
// and per run; an empty name is not recorded. The names are constants,
// so a case builds none.
type caseSeries struct {
	cases, planCases, duration, oracleCases, oracleFailures, discrepancies string
}

var (
	crosstestSeries = caseSeries{"crosstest_cases_total", "crosstest_plan_cases_total", "crosstest_case_duration_ms",
		"crosstest_oracle_cases_total", "crosstest_oracle_failures_total", "crosstest_distinct_discrepancies"}
	crossfuzzSeries = caseSeries{"crossfuzz_cases_total", "crossfuzz_plan_cases_total", "crossfuzz_case_duration_ms", "", "", ""}
)

// run executes n units through the worker pool, at describing unit i,
// then judges cases, the units' results.
func (l *caseLoop) run(cases []*CaseResult, n int, at func(int) unit) (*RunResult, error) {
	positions := make([]int, n)
	for i := range positions {
		positions[i] = i
	}
	if err := RunPool(l.opts.Context, l.opts.Parallel, positions, func(i int) { l.exec(i, at(i)) }); err != nil {
		return nil, err
	}
	// The oracles read only the cases, and every case released its
	// tables: past this point the deployment's warehouse and metastore
	// are empty.
	return l.judge(cases), nil
}

// exec runs u, the run's i-th unit: it opens the unit's root span,
// named after its plan and format and carrying attrs and, on a skew
// deployment, the two stacks; writes the table, reads it back if the
// write succeeded and projects the read onto the results; runs the
// skew probes; ends the span, releases the table and counts the unit.
func (l *caseLoop) exec(i int, u unit) {
	d := l.d
	var started time.Time
	if l.series != nil {
		started = time.Now() //crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
	}
	var span *obs.Span // the unit's root span, nil when untraced
	if tr := l.opts.Tracer; tr != nil {
		span = tr.Span(nil, IfaceSystem(u.plan.Write), csi.DataPlane, u.plan.Name()+"/"+u.format).
			Set(u.attrs[0], u.attrs[1]).Set(u.attrs[2], u.attrs[3])
		if d.Pair != nil {
			span.Set(obs.AttrWriterStack, d.Pair.Writer.String()).Set(obs.AttrReaderStack, d.Pair.Reader.String())
		}
	}
	var write WriteOutcome
	if u.partition {
		write = createInsert(d.Spark, d.Hive, span, u.plan.Write,
			"CREATE TABLE "+u.table+" (N INT) PARTITIONED BY (Tag STRING) STORED AS "+u.format,
			"INSERT INTO "+u.table+" VALUES (1, "+u.res[0].Input.Literal+")")
	} else {
		var one [1]WideColumn // stays on the stack
		cols := u.cols
		if cols == nil {
			one[0] = WideColumn{ColumnName, *u.res[0].Input}
			cols = one[:]
		}
		write = writeVia(d.Spark, d.Hive, span, u.plan.Write, u.table, u.format, cols)
	}
	var read WideOutcome
	if write.Err == nil {
		read = readVia(d.ReadSpark, d.ReadHive, span, u.plan.Read, u.table)
	}
	for k, c := range u.res {
		if u.partition {
			k = len(read.Row) - 1
		}
		c.Write, c.Read, c.Span = write, read.column(k), span
	}
	if l.skew {
		l.probeSkew(i, u.res[0])
	}
	span.Fail(write.Err).Fail(read.ReadErr).End()
	d.release(u.table)
	if s := l.series; s != nil {
		m := l.opts.Metrics
		m.Counter(s.cases).Inc()
		m.Counter(s.planCases, "plan", u.plan.Name(), "format", u.format).Inc()
		if s.oracleCases != "" {
			// Each case feeds exactly one value-checking oracle: valid
			// inputs the write/read oracle, invalid inputs the
			// error-handling oracle — so the per-oracle counts partition
			// the total.
			oracle := csi.OracleWriteRead
			if !u.res[0].Input.Valid {
				oracle = csi.OracleErrorHandling
			}
			m.Counter(s.oracleCases, "oracle", oracle.String()).Inc()
		}
		m.Histogram(s.duration, nil, "family", u.plan.Family).
			//crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
			Observe(float64(time.Since(started)) / float64(time.Millisecond))
	}
}

// judge is the harness's one tail. It renders each failure's
// propagation chain from its case's span subtree when the run traced —
// failures sharing a case span, such as a differential base and its
// peers or the columns of one table case, share one rendering — then
// forwards the failures to the streaming hook in order and builds the
// report.
func (l *caseLoop) judge(cases []*CaseResult) *RunResult {
	failures := l.oracles(cases)
	if l.skew {
		failures = append(failures, versionSkewOracle(cases)...)
	}
	if tr := l.opts.Tracer; tr != nil {
		rendered := map[*obs.Span]string{}
		for i := range failures {
			sp := failures[i].Case.Span
			chain, ok := rendered[sp]
			if !ok {
				chain = obs.RenderChain(tr.Chain(sp))
				rendered[sp] = chain
			}
			failures[i].Chain = chain
		}
	}
	if hook := l.opts.OnFailure; hook != nil {
		for _, f := range failures {
			hook(f)
		}
	}
	report := buildReport(failures)
	if s := l.series; s != nil && s.oracleFailures != "" {
		m := l.opts.Metrics
		for _, o := range []csi.Oracle{csi.OracleWriteRead, csi.OracleErrorHandling, csi.OracleDifferential, csi.OracleVersionSkew} {
			m.Counter(s.oracleFailures, "oracle", o.String()).Add(int64(report.ByOracle[o]))
		}
		m.Gauge(s.discrepancies).Set(float64(len(report.Found)))
	}
	return &RunResult{Cases: cases, Failures: failures, Report: report}
}

// RunPool drains items through n worker goroutines (n < 2 runs them
// sequentially on the caller's goroutine). It is the one ordered worker
// pool of the fault planes: when run writes only into its own item's
// slot, the caller observes results in the deterministic order of the
// slice regardless of scheduling. A cancelled ctx stops dispatching
// new items (in-flight items finish) and returns ctx.Err(); a nil ctx
// always drains everything and returns nil.
func RunPool[T any](ctx context.Context, n int, items []T, run func(T)) error {
	done := func() <-chan struct{} {
		if ctx == nil {
			return nil
		}
		return ctx.Done()
	}()
	if n > 1 {
		var wg sync.WaitGroup
		work := make(chan T)
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range work {
					run(it)
				}
			}()
		}
		var err error
	dispatch:
		for _, it := range items {
			select {
			case <-done:
				err = ctx.Err()
				break dispatch
			case work <- it:
			}
		}
		close(work)
		wg.Wait()
		return err
	}
	for _, it := range items {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		run(it)
	}
	return nil
}

// rankSep joins rank fields. 0x1f sorts below every digit, letter and
// '|', so a rank that is a prefix of another still compares first —
// plain string order over ranks is enumeration order.
const rankSep = "\x1f"

// appendPadded appends v in decimal, zero-padded to width exactly as
// fmt's %0<width>d renders it: a minus sign counts toward the width
// (-5 at width 6 is "-00005") and a wider value is never truncated.
func appendPadded(dst []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for n := len(d); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// caseTable names a case's table:
// <prefix><plan>_<format>_<id, zero-padded to width>. Run's tables are
// t_…_%04d, partition cases' pt_…_%02d.
func caseTable(prefix, plan, format string, id, width int) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, plan...)
	b = append(b, '_')
	b = append(b, format...)
	b = append(b, '_')
	return string(appendPadded(b, int64(id), width))
}

// rankCoord is a case's coordinate in its run's enumeration: Run's
// (input slice index, unfiltered plan index, format index), or a table
// case's (ordinal, column), which plan -1 marks. Rendered, its fields
// are fixed-width decimals joined by rankSep, so string order over
// rendered ranks is enumeration order.
type rankCoord struct {
	ord       int64
	plan, col int32
}

// tableColumn is the coordinate of column col of the table case with
// ordinal ord (RunTables enumeration: case ordinal, then column).
func tableColumn(ord int64, col int) rankCoord {
	return rankCoord{ord: ord, plan: -1, col: int32(col)}
}

// failureRank ranks a write/read or error-handling failure of the
// case: its oracle-block tag, then the rendered coordinate,
// %06d␟%03d␟%03d for a Run case and %010d␟%03d for a table case's
// column. Blocks are emitted in tag order by applyOracles.
func (r rankCoord) failureRank(block byte) string {
	var buf [48]byte
	b := append(buf[:0], block)
	b = append(b, rankSep...)
	if r.plan < 0 {
		b = appendPadded(b, r.ord, 10)
	} else {
		b = appendPadded(b, r.ord, 6)
		b = append(b, rankSep...)
		b = appendPadded(b, int64(r.plan), 3)
	}
	b = append(b, rankSep...)
	return string(appendPadded(b, int64(r.col), 3))
}

// diffRank ranks a differential failure: its block tag, its probe
// group's key, then the peer's ordinal within the group.
func diffRank(block byte, groupKey []byte, peer int) string {
	var buf [64]byte
	b := append(buf[:0], block)
	b = append(b, rankSep...)
	b = append(b, groupKey...)
	b = append(b, rankSep...)
	return string(appendPadded(b, int64(peer), 6))
}

func applyOracles(cases []*CaseResult) []Failure {
	var failures []Failure
	failures = append(failures, writeReadOracle(cases)...)
	failures = append(failures, errorHandlingOracle(cases)...)
	failures = append(failures, differentialOracle(cases)...)
	return failures
}

// writeReadOracle: for valid data, the data read from the query should
// be the data written earlier.
func writeReadOracle(cases []*CaseResult) []Failure {
	var out []Failure
	for _, c := range cases {
		if !c.Input.Valid {
			continue
		}
		var sig, detail string
		switch {
		case c.Write.Err != nil:
			sig, detail = classifyError(c.Write.Err), fmt.Sprintf("write of valid data failed: %v", c.Write.Err)
		case c.Read.Err != nil:
			sig, detail = classifyError(c.Read.Err), fmt.Sprintf("read of written data failed: %v", c.Read.Err)
		case !c.Read.HasRow:
			sig, detail = "row-missing", "written row not returned"
		case !c.Read.Value.EqualData(c.Input.Expected):
			sig, detail = classifyValueDiff(c.Input.Expected, *c.Read.Value), fmt.Sprintf("wrote %s, read %s", c.Input.Expected, c.Read.Value)
		default:
			continue
		}
		out = append(out, Failure{Oracle: csi.OracleWriteRead, Case: c, Signature: sig, Detail: detail, Rank: c.rank.failureRank('0')})
	}
	return out
}

// errorHandlingOracle: invalid data should be rejected or corrected
// with feedback during the write; a silent store is a failure.
func errorHandlingOracle(cases []*CaseResult) []Failure {
	var out []Failure
	for _, c := range cases {
		if c.Input.Valid {
			continue
		}
		if c.Write.Err != nil || len(c.Write.Warnings) > 0 {
			continue // rejected or accompanied by feedback
		}
		if c.Read.Err != nil || !c.Read.HasRow {
			continue
		}
		out = append(out, Failure{
			Oracle:    csi.OracleErrorHandling,
			Case:      c,
			Signature: classifyTargetFamily(c.Input.Type),
			Detail:    fmt.Sprintf("invalid input stored silently as %s", c.Read.Value),
			Rank:      c.rank.failureRank('1'),
		})
	}
	return out
}

// differentialOracle: results and behaviour should be consistent across
// interfaces (within a plan family, per format) and across backend
// formats (within a plan).
func differentialOracle(cases []*CaseResult) []Failure {
	p := newProbeGroups(cases)
	return append(p.failures(acrossInterfaces), p.failures(acrossFormats)...)
}

// probeGroups is what the differential oracle's two halves share: the
// cases, each case's outcome (computed once, as a case joins a group
// in each half) and one permutation of the cases that each half sorts
// into its probe groups.
type probeGroups struct {
	cases    []*CaseResult
	outcomes []outcome // the zero outcome until computed
	perm     []int32
}

func newProbeGroups(cases []*CaseResult) *probeGroups {
	return &probeGroups{cases: cases, outcomes: make([]outcome, len(cases)), perm: make([]int32, len(cases))}
}

func (p *probeGroups) outcome(ci int32) outcome {
	if p.outcomes[ci].tag == "" {
		p.outcomes[ci] = outcomeKey(p.cases[ci])
	}
	return p.outcomes[ci]
}

// A probeScope is one half of the differential oracle: across
// interfaces, one probe group per input, plan family and format; across
// formats, one per input and plan.
type probeScope uint8

const (
	acrossInterfaces probeScope = iota
	acrossFormats
)

// appendGroupKey appends a case's probe-group key under scope:
// "<id>|<family>|<format>" or "<id>|<plan>". No family, format or plan
// name contains '|', so equal keys mean the same group.
func appendGroupKey(dst []byte, c *CaseResult, scope probeScope) []byte {
	dst = strconv.AppendInt(dst, int64(c.Input.ID), 10)
	return appendGroupRest(append(dst, '|'), c, scope)
}

// appendGroupRest appends the group key past "<id>|".
func appendGroupRest(dst []byte, c *CaseResult, scope probeScope) []byte {
	if scope == acrossFormats {
		return append(dst, c.Plan.Name()...)
	}
	dst = append(dst, c.Plan.Family...)
	dst = append(dst, '|')
	return append(dst, c.Format...)
}

// compareGroupKeys compares two cases' group keys under scope in byte
// order. Distinct ids render distinct "<id>|" prefixes, which differ
// within their common length ('|' is no digit), so the prefixes alone
// decide, and the keys of one input's cases compare past them.
func compareGroupKeys(a, b *CaseResult, scope probeScope) int {
	if a.Input.ID != b.Input.ID {
		var ka, kb [24]byte
		return bytes.Compare(
			append(strconv.AppendInt(ka[:0], int64(a.Input.ID), 10), '|'),
			append(strconv.AppendInt(kb[:0], int64(b.Input.ID), 10), '|'))
	}
	var ka, kb [48]byte
	return bytes.Compare(appendGroupRest(ka[:0], a, scope), appendGroupRest(kb[:0], b, scope))
}

// failures judges one half's probe groups. Sorting the permutation by
// group key, ties in run order, lays each group out as one contiguous
// run with its members in run order, and visits the groups in key
// order: failure order (and therefore cluster membership order and
// report examples) must not depend on grouping order, or two identical
// runs render different reports. Keys compare as bytes, so input 10
// sorts before input 9. The keys render into stack buffers, and only a
// group with a failure renders its whole key, for the failures' ranks.
func (p *probeGroups) failures(scope probeScope) []Failure {
	for i := range p.perm {
		p.perm[i] = int32(i)
	}
	slices.SortFunc(p.perm, func(a, b int32) int {
		if c := compareGroupKeys(p.cases[a], p.cases[b], scope); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	detail, rankTag := "inconsistent across interfaces: ", byte('2')
	if scope == acrossFormats {
		detail, rankTag = "inconsistent across formats: ", '3'
	}
	var out []Failure
	for start := 0; start < len(p.perm); {
		base := p.cases[p.perm[start]]
		end := start + 1
		for end < len(p.perm) && compareGroupKeys(base, p.cases[p.perm[end]], scope) == 0 {
			end++
		}
		group := p.perm[start:end]
		start = end
		if len(group) < 2 {
			continue
		}
		var keyBuf [64]byte
		var gk []byte // the group's key, rendered at its first failure
		baseKey := p.outcome(group[0])
		for pi, ci := range group[1:] {
			peerKey := p.outcome(ci)
			if peerKey == baseKey {
				continue
			}
			if gk == nil {
				gk = appendGroupKey(keyBuf[:0], base, scope)
			}
			peer := p.cases[ci]
			out = append(out, Failure{
				Oracle:    csi.OracleDifferential,
				Case:      base,
				Peer:      peer,
				Signature: classifyDiffPair(base, peer),
				Detail:    detail + base.Describe() + " [" + baseKey.String() + "] vs " + peer.Describe() + " [" + peerKey.String() + "]",
				// The group key (byte order) then the peer ordinal: diff
				// groups never straddle a family or seed-range shard, so
				// this reproduces the unsharded emission order within the
				// block.
				Rank: diffRank(rankTag, gk, pi),
			})
		}
	}
	return out
}

// classifyDiffPair derives the signature for a differing pair: a
// distinctive error on either side wins; otherwise the value difference
// is classified.
func classifyDiffPair(a, b *CaseResult) string {
	for _, c := range []*CaseResult{a, b} {
		if c.Write.Err != nil {
			return classifyError(c.Write.Err)
		}
		if c.Read.Err != nil {
			return classifyError(c.Read.Err)
		}
	}
	if a.Read.HasRow != b.Read.HasRow {
		// A row present on one side only: Hive's struct fold or a write
		// rejected elsewhere.
		if strings.Contains(a.Input.Type.String(), "STRUCT") {
			return "struct-null"
		}
		return "row-presence"
	}
	if !a.Input.Valid {
		// Divergent handling of invalid input is the insert-coercion
		// discrepancy of the destination family, however the stored
		// values happen to differ (NULL vs wrapped vs accepted).
		return classifyTargetFamily(a.Input.Type)
	}
	return classifyValueDiff(*a.Read.Value, *b.Read.Value)
}
