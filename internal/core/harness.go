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
	// Metrics, when non-nil, records per-plan/per-format/per-oracle
	// case counts and durations into the registry.
	Metrics *obs.Registry
	// OnFailure, when non-nil, is invoked once per oracle failure after
	// the oracles run, in the run's deterministic failure order and
	// from the calling goroutine. Streaming consumers (crossd) use it
	// to forward failures as they are established.
	OnFailure func(Failure)
}

// deployment stands up the system under test every harness mode runs
// on: a skew deployment when Versions is set, the SparkConf overrides
// applied and the Tracer attached.
func (opts RunOptions) deployment() (*Deployment, error) {
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
	return d, nil
}

// caseSpan opens a case's root span (nil when untraced), named after
// its plan and format: attrs are its key/value attributes, followed on
// a skew deployment by the writer and reader stacks.
func (d *Deployment) caseSpan(tr *obs.Tracer, plan Plan, format string, attrs ...string) *obs.Span {
	if tr == nil {
		return nil
	}
	sp := tr.Span(nil, IfaceSystem(plan.Write), csi.DataPlane, plan.Name()+"/"+format)
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.Set(attrs[i], attrs[i+1])
	}
	if d.Pair != nil {
		sp.Set(obs.AttrWriterStack, d.Pair.Writer.String()).
			Set(obs.AttrReaderStack, d.Pair.Reader.String())
	}
	return sp
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
	d, err := opts.deployment()
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
					Input: in, Plan: plan, Format: format, Table: caseTable(plan.Name(), format, in.ID),
					rank: rankCoord{ord: int64(i), plan: int32(planPos[plan.Name()]), col: int32(fi)},
				})
				cases = append(cases, &slab[len(slab)-1])
			}
		}
	}
	// The first cell of a matrix to read on a stack fills its probe
	// table; a later cell copies from it. Each case owns the slot at its
	// slab position, so the pool runs over positions.
	copyProbes := probes != nil && probes.slots != nil
	if probes != nil && !copyProbes {
		probes.slots = make([]rwProbe, len(cases))
	}
	positions := make([]int, len(cases))
	for i := range positions {
		positions[i] = i
	}
	execute := func(i int) {
		c := cases[i]
		var started time.Time
		if opts.Metrics != nil {
			started = time.Now() //crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
		}
		c.Span = d.caseSpan(opts.Tracer, c.Plan, c.Format, "input", c.Input.Name, "table", c.Table)
		c.Write = d.WriteSpan(c.Span, c.Plan.Write, c.Table, c.Format, *c.Input)
		if c.Write.Err == nil {
			c.Read = d.ReadSpan(c.Span, c.Plan.Read, c.Table)
		}
		if d.Pair != nil {
			// Skew probes: the same table re-read on the writer stack, and
			// a sibling table produced entirely on the reader stack. On an
			// unskewed pair both stacks carry one profile and conf and
			// read the same bytes, so the writer-stack read is the read.
			if c.Write.Err == nil {
				c.WriterRead = c.Read
				if d.Pair.Skewed() {
					c.WriterRead = d.WriterReadSpan(c.Span, c.Plan.Read, c.Table)
				}
			}
			if copyProbes {
				p := &probes.slots[i]
				c.RWWrite, c.RWRead = p.write, p.read
				c.Span.Set(obs.AttrProbeFrom, probes.from)
			} else {
				rw := c.Table + "_rw"
				c.RWWrite = d.ReaderWriteSpan(c.Span, c.Plan.Write, rw, c.Format, *c.Input)
				if c.RWWrite.Err == nil {
					c.RWRead = d.ReadSpan(c.Span, c.Plan.Read, rw)
				}
				defer d.release(rw)
				if probes != nil {
					probes.slots[i] = rwProbe{c.RWWrite, c.RWRead}
				}
			}
		}
		c.Span.Fail(c.Write.Err).Fail(c.Read.Err).End()
		d.release(c.Table)
		if opts.Metrics != nil {
			opts.Metrics.Counter("crosstest_cases_total").Inc()
			opts.Metrics.Counter("crosstest_plan_cases_total", "plan", c.Plan.Name(), "format", c.Format).Inc()
			// Each case feeds exactly one value-checking oracle: valid
			// inputs the write/read oracle, invalid inputs the
			// error-handling oracle — so the per-oracle counts partition
			// the total.
			oracle := csi.OracleWriteRead
			if !c.Input.Valid {
				oracle = csi.OracleErrorHandling
			}
			opts.Metrics.Counter("crosstest_oracle_cases_total", "oracle", oracle.String()).Inc()
			opts.Metrics.Histogram("crosstest_case_duration_ms", nil, "family", c.Plan.Family).
				//crossvet:wallclock case timing feeds only the obs histogram, never the report or its hash
				Observe(float64(time.Since(started)) / float64(time.Millisecond))
		}
	}
	if err := RunPool(opts.Context, opts.Parallel, positions, execute); err != nil {
		return nil, err
	}

	// The oracles read only the cases, and every case released its
	// tables: past this point the deployment's warehouse and metastore
	// are empty.
	failures := applyOracles(cases)
	if opts.Versions != nil {
		failures = append(failures, versionSkewOracle(cases)...)
	}
	attachChains(opts.Tracer, failures)
	emitFailures(opts.OnFailure, failures)
	report := buildReport(failures)
	if opts.Metrics != nil {
		for _, o := range []csi.Oracle{csi.OracleWriteRead, csi.OracleErrorHandling, csi.OracleDifferential, csi.OracleVersionSkew} {
			opts.Metrics.Counter("crosstest_oracle_failures_total", "oracle", o.String()).Add(int64(report.ByOracle[o]))
		}
		opts.Metrics.Gauge("crosstest_distinct_discrepancies").Set(float64(len(report.Found)))
	}
	return &RunResult{
		Cases:    cases,
		Failures: failures,
		Report:   report,
	}, nil
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

// caseTable names Run's table for one input×plan×format case:
// t_<plan>_<format>_<id, zero-padded to 4>.
func caseTable(plan, format string, id int) string {
	var buf [64]byte
	b := append(buf[:0], "t_"...)
	b = append(b, plan...)
	b = append(b, '_')
	b = append(b, format...)
	b = append(b, '_')
	return string(appendPadded(b, int64(id), 4))
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

// attachChains renders each failure's propagation chain from its case's
// span subtree (a no-op when the run did not trace). Failures sharing a
// case span — a differential base and its peers, the columns of one
// table case — share one rendering.
func attachChains(tr *obs.Tracer, failures []Failure) {
	if tr == nil {
		return
	}
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

// emitFailures forwards failures to a streaming hook, in order.
func emitFailures(hook func(Failure), failures []Failure) {
	if hook == nil {
		return
	}
	for _, f := range failures {
		hook(f)
	}
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
		switch {
		case c.Write.Err != nil:
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: classifyError(c.Write.Err),
				Detail:    fmt.Sprintf("write of valid data failed: %v", c.Write.Err),
				Rank:      c.rank.failureRank('0'),
			})
		case c.Read.Err != nil:
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: classifyError(c.Read.Err),
				Detail:    fmt.Sprintf("read of written data failed: %v", c.Read.Err),
				Rank:      c.rank.failureRank('0'),
			})
		case !c.Read.HasRow:
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: "row-missing",
				Detail:    "written row not returned",
				Rank:      c.rank.failureRank('0'),
			})
		case !c.Read.Value.EqualData(c.Input.Expected):
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: classifyValueDiff(c.Input.Expected, *c.Read.Value),
				Detail:    fmt.Sprintf("wrote %s, read %s", c.Input.Expected, c.Read.Value),
				Rank:      c.rank.failureRank('0'),
			})
		}
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
