package core

import (
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
	// Rank encodes the case's position in the run's global enumeration
	// order as a string whose lexicographic order equals enumeration
	// order. Fields are fixed-width decimals joined by 0x1f (below every
	// printable key character, so a shorter rank that is a prefix of a
	// longer one still sorts first). A sharded run stamps the same ranks
	// its unsharded equivalent would, which is what lets a coordinator
	// merge sub-reports and pick the same representative failures the
	// single-node run picks.
	Rank string
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
					Rank: caseRank(i, planPos[plan.Name()], fi),
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

// caseRank encodes an input×plan×format coordinate of Run's
// enumeration (input slice index, unfiltered plan index, format index).
func caseRank(input, plan, format int) string {
	var buf [32]byte
	b := appendPadded(buf[:0], int64(input), 6)
	b = append(b, rankSep...)
	b = appendPadded(b, int64(plan), 3)
	b = append(b, rankSep...)
	return string(appendPadded(b, int64(format), 3))
}

// tableRank encodes a column of an explicitly-ordered TableCase
// (RunTables enumeration: case ordinal, then column).
func tableRank(ord int64, column int) string {
	var buf [32]byte
	b := appendPadded(buf[:0], ord, 10)
	b = append(b, rankSep...)
	return string(appendPadded(b, int64(column), 3))
}

// failureRank prefixes a case rank with its oracle-block tag; blocks
// are emitted in tag order by applyOracles.
func failureRank(block string, caseRank string) string {
	return block + rankSep + caseRank
}

// diffRank ranks a differential failure: its block tag, its probe
// group's key, then the peer's ordinal within the group.
func diffRank(tag, groupKey string, peer int) string {
	var buf [64]byte
	b := append(buf[:0], tag...)
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
				Rank:      failureRank("0", c.Rank),
			})
		case c.Read.Err != nil:
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: classifyError(c.Read.Err),
				Detail:    fmt.Sprintf("read of written data failed: %v", c.Read.Err),
				Rank:      failureRank("0", c.Rank),
			})
		case !c.Read.HasRow:
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: "row-missing",
				Detail:    "written row not returned",
				Rank:      failureRank("0", c.Rank),
			})
		case !c.Read.Value.EqualData(c.Input.Expected):
			out = append(out, Failure{
				Oracle:    csi.OracleWriteRead,
				Case:      c,
				Signature: classifyValueDiff(c.Input.Expected, *c.Read.Value),
				Detail:    fmt.Sprintf("wrote %s, read %s", c.Input.Expected, c.Read.Value),
				Rank:      failureRank("0", c.Rank),
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
			Rank:      failureRank("1", c.Rank),
		})
	}
	return out
}

// differentialOracle: results and behaviour should be consistent across
// interfaces (within a plan family, per format) and across backend
// formats (within a plan).
func differentialOracle(cases []*CaseResult) []Failure {
	keys := newOutcomeKeys(cases)
	return append(acrossInterfaces(cases, keys), acrossFormats(cases, keys)...)
}

// acrossInterfaces is the differential oracle's first half: one probe
// group per input, plan family and format.
func acrossInterfaces(cases []*CaseResult, keys *outcomeKeys) []Failure {
	type familyFormat struct {
		id             int
		family, format string
	}
	groups := diffGrouper[familyFormat]{index: map[familyFormat]int{}}
	for ci, c := range cases {
		groups.add(familyFormat{c.Input.ID, c.Plan.Family, c.Format}, ci, func() string {
			return strconv.Itoa(c.Input.ID) + "|" + c.Plan.Family + "|" + c.Format
		})
	}
	return diffGroups(groups.groups, keys, "across interfaces", "2")
}

// acrossFormats is the differential oracle's second half: one probe
// group per input and plan.
func acrossFormats(cases []*CaseResult, keys *outcomeKeys) []Failure {
	type inputPlan struct {
		id   int
		plan string
	}
	groups := diffGrouper[inputPlan]{index: map[inputPlan]int{}}
	for ci, c := range cases {
		name := c.Plan.Name()
		groups.add(inputPlan{c.Input.ID, name}, ci, func() string {
			return strconv.Itoa(c.Input.ID) + "|" + name
		})
	}
	return diffGroups(groups.groups, keys, "across formats", "3")
}

// diffGroup is one differential probe group: the indexes of its cases
// in run order, under the group's string key. The key is formatted once
// per group and orders both the groups and the failures' ranks.
type diffGroup struct {
	key     string
	members []int
}

// diffGrouper collects cases into groups under a comparable struct key.
// The struct key and the string key are one-to-one because no family,
// format or plan name contains '|'.
type diffGrouper[K comparable] struct {
	index  map[K]int
	groups []diffGroup
}

func (g *diffGrouper[K]) add(k K, ci int, key func() string) {
	gi, ok := g.index[k]
	if !ok {
		gi = len(g.groups)
		g.index[k] = gi
		g.groups = append(g.groups, diffGroup{key: key()})
	}
	g.groups[gi].members = append(g.groups[gi].members, ci)
}

// outcomeKeys memoizes outcomeKey per case: a case joins two probe
// groups, but its outcome is summarized once.
type outcomeKeys struct {
	cases []*CaseResult
	memo  []string // "" until computed; outcomeKey is never empty
}

func newOutcomeKeys(cases []*CaseResult) *outcomeKeys {
	return &outcomeKeys{cases: cases, memo: make([]string, len(cases))}
}

func (o *outcomeKeys) get(ci int) string {
	if o.memo[ci] == "" {
		o.memo[ci] = outcomeKey(o.cases[ci])
	}
	return o.memo[ci]
}

func diffGroups(groups []diffGroup, keys *outcomeKeys, scope, rankTag string) []Failure {
	// Iterate in sorted key order: failure order (and therefore cluster
	// membership order and report examples) must not depend on grouping
	// order, or two identical runs render different reports. The order
	// is string order, so input 10 sorts before input 9.
	slices.SortFunc(groups, func(a, b diffGroup) int { return strings.Compare(a.key, b.key) })
	var out []Failure
	for _, g := range groups {
		if len(g.members) < 2 {
			continue
		}
		base := keys.cases[g.members[0]]
		baseKey := keys.get(g.members[0])
		for pi, ci := range g.members[1:] {
			peerKey := keys.get(ci)
			if peerKey == baseKey {
				continue
			}
			peer := keys.cases[ci]
			out = append(out, Failure{
				Oracle:    csi.OracleDifferential,
				Case:      base,
				Peer:      peer,
				Signature: classifyDiffPair(base, peer),
				Detail:    "inconsistent " + scope + ": " + base.Describe() + " [" + baseKey + "] vs " + peer.Describe() + " [" + peerKey + "]",
				// The group key (sorted-string order) then the peer ordinal:
				// diff groups never straddle a family or seed-range shard, so
				// this reproduces the unsharded emission order within the
				// block.
				Rank: diffRank(rankTag, g.key, pi),
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
