package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"

	"repro/internal/csi"
	"repro/internal/sqlval"
	"repro/internal/versions"
)

// The harness builds its per-case strings (table names, ranks, oracle
// keys, details) by append and concatenation. The reference forms
// below are the fmt-based originals; the tests check the two agree
// byte for byte.

func refOutcomeKey(c *CaseResult) string {
	if c.Write.Err != nil {
		return "werr:" + classifyError(c.Write.Err)
	}
	if c.Read.Err != nil {
		return "rerr:" + classifyError(c.Read.Err)
	}
	if !c.Read.HasRow {
		return "norow"
	}
	v := c.Read.Value
	return fmt.Sprintf("ok:%s:%s", v.Kind(), v.String())
}

func refDescribe(c *CaseResult) string {
	return fmt.Sprintf("%s/%s input=%s(%s)", c.Plan.Name(), c.Format, c.Input.Name, c.Input.Literal)
}

func refDifferentialOracle(cases []*CaseResult) []Failure {
	var out []Failure
	byFamilyFormat := map[string][]*CaseResult{}
	byPlan := map[string][]*CaseResult{}
	for _, c := range cases {
		kf := fmt.Sprintf("%d|%s|%s", c.Input.ID, c.Plan.Family, c.Format)
		byFamilyFormat[kf] = append(byFamilyFormat[kf], c)
		kp := fmt.Sprintf("%d|%s", c.Input.ID, c.Plan.Name())
		byPlan[kp] = append(byPlan[kp], c)
	}
	out = append(out, refDiffGroups(byFamilyFormat, "across interfaces", "2")...)
	out = append(out, refDiffGroups(byPlan, "across formats", "3")...)
	return out
}

func refDiffGroups(groups map[string][]*CaseResult, scope, rankTag string) []Failure {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Failure
	for _, k := range keys {
		group := groups[k]
		if len(group) < 2 {
			continue
		}
		base := group[0]
		baseKey := refOutcomeKey(base)
		for pi, peer := range group[1:] {
			peerKey := refOutcomeKey(peer)
			if peerKey == baseKey {
				continue
			}
			out = append(out, Failure{
				Oracle:    csi.OracleDifferential,
				Case:      base,
				Peer:      peer,
				Signature: classifyDiffPair(base, peer),
				Detail:    fmt.Sprintf("inconsistent %s: %s [%s] vs %s [%s]", scope, refDescribe(base), baseKey, refDescribe(peer), peerKey),
				Rank:      rankTag + rankSep + k + rankSep + fmt.Sprintf("%06d", pi),
			})
		}
	}
	return out
}

// genDiffCases builds a seeded case set for the differential oracle:
// input IDs straddling the 9/10, 99/100 and 999/1000 digit boundaries,
// every plan and format, each case ending in a write error, a read
// error, a missing row or one of a few values (so some peers agree and
// some differ), and some coordinates carried by several cases with the
// same input ID, as sibling table cases carry them.
func genDiffCases(seed int64) []*CaseResult {
	rng := rand.New(rand.NewSource(seed))
	ids := []int{0, 1, 8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001}
	types := []sqlval.Type{
		sqlval.Int, sqlval.BigInt, sqlval.DecimalType(10, 2), sqlval.CharType(4), sqlval.String,
	}
	outcome := func(c *CaseResult) {
		switch rng.Intn(6) {
		case 0:
			c.Write.Err = errors.New("write rejected: bad literal")
		case 1:
			c.Read.Err = &sqlval.CastError{Code: "CAST_INVALID_INPUT", To: c.Input.Type}
		case 2:
			// The row is missing.
		default:
			var v sqlval.Value
			switch rng.Intn(3) {
			case 0:
				v = sqlval.IntVal(sqlval.Int, int64(rng.Intn(2)))
			case 1:
				v = sqlval.IntVal(sqlval.BigInt, int64(rng.Intn(2)))
			default:
				v = sqlval.NullOf(c.Input.Type)
			}
			c.Read.HasRow, c.Read.Value = true, &v
		}
	}
	var cases []*CaseResult
	for _, id := range ids {
		typ := types[rng.Intn(len(types))]
		for pi, plan := range Plans() {
			for fi, format := range Formats() {
				copies := 1
				if rng.Intn(8) == 0 {
					copies = 2 + rng.Intn(2)
				}
				for k := 0; k < copies; k++ {
					in := &Input{ID: id, Name: fmt.Sprintf("in_%d_%d", id, k), Type: typ,
						Literal: fmt.Sprint(rng.Intn(100)), Valid: rng.Intn(4) > 0}
					c := &CaseResult{Input: in, Plan: plan, Format: format,
						Table: caseTable("t_", plan.Name(), format, id, 4), rank: rankCoord{ord: int64(id), plan: int32(pi), col: int32(fi)}}
					outcome(c)
					cases = append(cases, c)
				}
			}
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

func TestDifferentialOracleMatchesFmtReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		cases := genDiffCases(seed)
		for _, c := range cases {
			if got, want := outcomeKey(c).String(), refOutcomeKey(c); got != want {
				t.Fatalf("seed %d: outcomeKey = %q, want %q", seed, got, want)
			}
			if got, want := c.Describe(), refDescribe(c); got != want {
				t.Fatalf("seed %d: Describe = %q, want %q", seed, got, want)
			}
		}
		got, want := differentialOracle(cases), refDifferentialOracle(cases)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d failures, reference has %d", seed, len(got), len(want))
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: generated cases raise no differential failure", seed)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Oracle != w.Oracle || g.Signature != w.Signature || g.Detail != w.Detail ||
				g.Rank != w.Rank || g.Case != w.Case || g.Peer != w.Peer {
				t.Fatalf("seed %d failure %d:\n got  %+v\n want %+v", seed, i, g, w)
			}
		}
	}
}

// Group keys sort as strings, so input 10 sorts before input 9, and
// input 100 before input 10 ('|' sorts above the digits).
func TestDiffGroupsSortAsStrings(t *testing.T) {
	var cases []*CaseResult
	for _, id := range []int{9, 10, 1, 100} {
		for _, p := range Plans()[:2] {
			c := &CaseResult{Input: &Input{ID: id}, Plan: p, Format: "orc"}
			if p.Read == DataFrame {
				c.Read.HasRow, c.Read.Value = true, &sqlval.Value{}
			}
			cases = append(cases, c)
		}
	}
	got := differentialOracle(cases)
	want := []int{100, 10, 1, 9}
	if len(got) != len(want) {
		t.Fatalf("%d failures, want %d: %+v", len(got), len(want), got)
	}
	for i, id := range want {
		if got[i].Case.Input.ID != id {
			t.Fatalf("failures out of string-key order: %+v", got)
		}
	}
}

func TestRankEncodersMatchFmt(t *testing.T) {
	values := []int64{math.MinInt64, -1234567, -100, -5, -1, math.MaxInt64, math.MaxInt32}
	for w := 1; w <= 10; w++ {
		p := int64(math.Pow10(w - 1))
		values = append(values, 0, p-1, p, 10*p-1, 10*p, 100*p+7, -p, -(p - 1))
	}
	for _, v := range values {
		for _, width := range []int{3, 4, 6, 10} {
			if got, want := string(appendPadded(nil, v, width)), fmt.Sprintf("%0*d", width, v); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
		i := int(v)
		// Plan and column indexes are small; the coordinate holds them
		// as int32, so the rendering is checked over that range.
		j := int32(max(0, min(v, math.MaxInt32)))
		if got, want := (rankCoord{ord: v, plan: j, col: j}).failureRank('0'), fmt.Sprintf("0%s%06d%s%03d%s%03d", rankSep, v, rankSep, j, rankSep, j); got != want {
			t.Errorf("Run case rank (%d, %d) = %q, want %q", v, j, got, want)
		}
		if got, want := tableColumn(v, int(j)).failureRank('1'), fmt.Sprintf("1%s%010d%s%03d", rankSep, v, rankSep, j); got != want {
			t.Errorf("table column rank (%d, %d) = %q, want %q", v, j, got, want)
		}
		if got, want := caseTable("t_", "w_sql_r_df", "parquet", i, 4), fmt.Sprintf("t_%s_%s_%04d", "w_sql_r_df", "parquet", i); got != want {
			t.Errorf("caseTable(%d) = %q, want %q", i, got, want)
		}
		if got, want := caseTable("pt_", "w_hive_r_sql", "orc", i, 2), fmt.Sprintf("pt_%s_%s_%02d", "w_hive_r_sql", "orc", i); got != want {
			t.Errorf("partition caseTable(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestPlanNames(t *testing.T) {
	want := []string{
		"w_sql_r_sql", "w_sql_r_df", "w_df_r_sql", "w_df_r_df",
		"w_sql_r_hive", "w_df_r_hive", "w_hive_r_sql", "w_hive_r_df",
	}
	for i, p := range Plans() {
		if got := p.Name(); got != want[i] {
			t.Errorf("plan %d: Name() = %q, want %q", i, got, want[i])
		}
	}
	// Any interface besides SparkSQL and DataFrame labels as hive.
	if got := (Plan{Write: Iface("other"), Read: DataFrame}).Name(); got != "w_hive_r_df" {
		t.Errorf("unknown write interface: Name() = %q, want w_hive_r_df", got)
	}
	if got := (Plan{Write: HiveQL, Read: HiveQL}).Name(); got != "w_hive_r_hive" {
		t.Errorf("hive to hive: Name() = %q, want w_hive_r_hive", got)
	}
}

func TestKeyEncoderAllocations(t *testing.T) {
	p := Plans()[3]
	if a := testing.AllocsPerRun(1000, func() { _ = p.Name() }); a != 0 {
		t.Errorf("Plan.Name allocates %.1f/op, want 0", a)
	}
	// A failure's rank is one string: tag, separator and coordinate
	// render into one stack buffer.
	run, column := rankCoord{ord: 421, plan: 7, col: 2}, tableColumn(123456789, 11)
	if a := testing.AllocsPerRun(1000, func() { _ = run.failureRank('0') }); a != 1 {
		t.Errorf("Run case failureRank allocates %.1f/op, want 1", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _ = column.failureRank('1') }); a != 1 {
		t.Errorf("table column failureRank allocates %.1f/op, want 1", a)
	}
}

// The per-case ceilings below pin the harness's heap cost over the
// first 20 inputs of the base corpus (480 cases), set about 10% (objects)
// and 15% (bytes) above the measured values, and at least 3% above the
// race detector's bytes. A rise past one means a per-case allocation
// crept back into the harness path, such as a fresh parser token buffer
// per statement or a heap probe view per skew case.
//
// Measured on linux/amd64: Run 74.0 objects and 4,436 B per case, the
// skew pair 160.1 objects and 8,996 B (5,192 B and 10,645 B under the
// race detector, whose sync.Pool drops a quarter of returned buffers).
const (
	maxRunAllocsPerCase  = 82
	maxRunBytesPerCase   = 5400
	maxSkewAllocsPerCase = 178
	maxSkewBytesPerCase  = 11000
)

// heapAllocBytes reads the cumulative bytes allocated to the heap from
// runtime/metrics. The collection first flushes every P's allocation
// cache, which the metric otherwise counts only when a span is retired.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// checkRunCost runs the first 20 base-corpus inputs under opts and
// checks the run's heap objects and bytes per case against the
// ceilings, each averaged over three runs after a warm-up run.
func checkRunCost(t *testing.T, name string, opts RunOptions, maxAllocs, maxBytes float64) {
	t.Helper()
	checkCost(t, name, func(inputs []Input) (int, error) {
		res, err := Run(inputs, opts)
		if err != nil {
			return 0, err
		}
		return len(res.Cases), nil
	}, maxAllocs, maxBytes)
}

// checkCost is checkRunCost for any harness entry point: run executes
// the inputs and returns how many cases it ran.
func checkCost(t *testing.T, name string, run func([]Input) (int, error), maxAllocs, maxBytes float64) {
	t.Helper()
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	inputs := base[:20]
	var cases int
	once := func() {
		if cases, err = run(inputs); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 3
	allocs := testing.AllocsPerRun(runs, once) / float64(cases)
	before := heapAllocBytes()
	for i := 0; i < runs; i++ {
		once()
	}
	bytes := float64(heapAllocBytes()-before) / float64(runs*cases)
	t.Logf("%s: %.1f allocs/case, %.0f B/case", name, allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%s allocates %.1f objects/case, ceiling %.0f", name, allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%s allocates %.0f B/case, ceiling %.0f", name, bytes, maxBytes)
	}
}

func TestRunAllocationsPerCase(t *testing.T) {
	checkRunCost(t, "core.Run", RunOptions{}, maxRunAllocsPerCase, maxRunBytesPerCase)
}

// The skew sibling: the same cases on the full-upgrade pair, as RunSkew
// runs them, with the two skew probes per case and the version-skew
// oracle.
func TestRunSkewAllocationsPerCase(t *testing.T) {
	pair := versions.DefaultPairs()[1]
	checkRunCost(t, "core.RunSkew "+pair.String(), RunOptions{Versions: &pair}, maxSkewAllocsPerCase, maxSkewBytesPerCase)
}

// The matrix over the default pairs, set about 15% above the measured
// values and at least 3% above the race detector's bytes. Four of its five pairs read on one stack, whose control probe
// runs once, in the baseline cell; the baseline cell also takes its
// writer-stack control from the main read. A ceiling break means a
// matrix reruns a probe it could share.
//
// Measured on linux/amd64: 123.0 objects and 6,883 B per case (128.0
// and 8,111 B under the race detector).
const (
	maxMatrixAllocsPerCase = 142
	maxMatrixBytesPerCase  = 8400
)

func TestRunSkewMatrixAllocationsPerCase(t *testing.T) {
	pairs := versions.DefaultPairs()
	checkCost(t, "core.RunSkewMatrix", func(inputs []Input) (int, error) {
		if _, err := RunSkewMatrix(inputs, pairs, RunOptions{}); err != nil {
			return 0, err
		}
		return len(inputs) * len(Plans()) * len(Formats()) * len(pairs), nil
	}, maxMatrixAllocsPerCase, maxMatrixBytesPerCase)
}

// What a finished run keeps: the heap a held RunResult retains over the
// same 480 cases, set about 15% above the measured values. A rise past
// one means a case record, a failure or the report grew, such as a read
// outcome holding a copy of its value instead of pointing at the row.
//
// Measured on linux/amd64: Run 772 B per case, the skew pair 1,334 B;
// the race detector reads the same.
const (
	maxRunRetainedPerCase  = 900
	maxSkewRetainedPerCase = 1550
)

// heapLiveBytes reads the heap bytes marked live by a collection it
// forces first, so the reading covers exactly what is reachable now. The
// second collection empties the sync.Pool victim caches, so buffers
// pooled for reuse stay out of the reading.
func heapLiveBytes() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

func TestRunRetainedBytesPerCase(t *testing.T) {
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	inputs := base[:20]
	pair := versions.DefaultPairs()[1]
	for _, tc := range []struct {
		name string
		opts RunOptions
		max  float64
	}{
		{"core.Run", RunOptions{}, maxRunRetainedPerCase},
		{"core.RunSkew " + pair.String(), RunOptions{Versions: &pair}, maxSkewRetainedPerCase},
	} {
		// A warm-up run keeps lazily built state out of the reading.
		if _, err := Run(inputs, tc.opts); err != nil {
			t.Fatal(err)
		}
		before := heapLiveBytes()
		res, err := Run(inputs, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		retained := float64(heapLiveBytes()-before) / float64(len(res.Cases))
		runtime.KeepAlive(res)
		t.Logf("%s: %.0f B/case retained", tc.name, retained)
		if retained > tc.max {
			t.Errorf("%s retains %.0f B/case, ceiling %.0f", tc.name, retained, tc.max)
		}
	}
}
