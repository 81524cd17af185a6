package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/csi"
	"repro/internal/inject"
	"repro/internal/versions"
)

// TestGoldenSkewMatrix pins the cross-version discrepancy matrix over
// the default writer×reader pairs: per cell, the standard-registry
// discrepancies, the skew-only signatures, and the confirmed skew
// registry entries. The baseline cell must stay exactly the Figure-6
// pin with zero skew findings — the version axis may never perturb the
// unskewed run.
func TestGoldenSkewMatrix(t *testing.T) {
	all15 := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	want := []SkewCell{
		{
			Pair:  mustPair(t, "3.2.1/3.1.2->3.2.1/3.1.2"),
			Known: all15,
			// No skew findings on the unskewed pair: the writer-stack and
			// reader-stack probes see identical outcomes.
			Failures: 5833,
		},
		{
			Pair:    mustPair(t, "2.3.0/2.3.9->3.2.1/3.1.2"),
			Known:   []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			SkewIDs: []string{"S1", "S2", "S3", "S5", "S6", "S7", "S8", "S9"},
			SkewSignatures: []string{
				"avro-unavailable", "skew-ansi-cast", "skew-avro-unavailable",
				"skew-char-length", "skew-char-type", "skew-date-rebase",
				"skew-store-assignment", "skew-struct-null", "skew-timestamp-zone",
				"skew-value-mismatch-string",
			},
			Failures: 12956, SkewFailures: 4940,
		},
		{
			Pair:    mustPair(t, "2.4.8/2.3.9->3.2.1/3.1.2"),
			Known:   all15,
			SkewIDs: []string{"S2", "S3", "S5", "S6", "S7", "S8", "S9"},
			SkewSignatures: []string{
				"skew-ansi-cast", "skew-char-length", "skew-char-type",
				"skew-date-rebase", "skew-store-assignment", "skew-struct-null",
				"skew-timestamp-zone", "skew-value-mismatch-string",
			},
			Failures: 8381, SkewFailures: 2148,
		},
		{
			Pair:    mustPair(t, "3.2.1/2.3.9->3.2.1/3.1.2"),
			Known:   all15,
			SkewIDs: []string{"S3", "S4", "S5"},
			SkewSignatures: []string{
				"skew-char-padding", "skew-struct-null", "skew-timestamp-zone",
			},
			Failures: 5845, SkewFailures: 12,
		},
		{
			Pair:    mustPair(t, "3.2.1/3.1.2->2.3.0/2.3.9"),
			Known:   []int{2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 15},
			SkewIDs: []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9"},
			SkewSignatures: []string{
				"avro-unavailable", "skew-ansi-cast", "skew-avro-unavailable",
				"skew-char-length", "skew-char-padding", "skew-char-type",
				"skew-date-rebase", "skew-store-assignment", "skew-struct-null",
				"skew-timestamp-zone", "skew-value-mismatch-char", "skew-value-mismatch-varchar",
			},
			Failures: 14127, SkewFailures: 6338,
		},
	}
	pairs := versions.DefaultPairs()
	if testing.Short() {
		// The CI smoke subset: the baseline pair plus one upgrade pair.
		pairs, want = pairs[:2], want[:2]
	}
	m, err := RunSkewMatrix(corpus(t), pairs, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != len(want) {
		t.Fatalf("matrix has %d cells, want %d", len(m.Cells), len(want))
	}
	for i, w := range want {
		got := m.Cells[i]
		if !reflect.DeepEqual(got, w) {
			t.Errorf("cell %d (%s):\n got %+v\nwant %+v", i, w.Pair, got, w)
		}
	}
	// Acceptance: at least 5 skew-only discrepancies across the upgrade
	// pairs, each anchored to a real JIRA or migration-guide note.
	byID := inject.SkewByID()
	confirmed := map[string]bool{}
	for _, cell := range m.Cells {
		for _, id := range cell.SkewIDs {
			confirmed[id] = true
			d, ok := byID[id]
			if !ok {
				t.Errorf("cell %s confirmed unregistered skew id %s", cell.Pair, id)
				continue
			}
			if d.Anchor == "" {
				t.Errorf("skew %s has no JIRA/migration anchor", id)
			}
		}
	}
	if len(confirmed) < 5 {
		t.Errorf("only %d skew discrepancies confirmed, want >= 5: %v", len(confirmed), confirmed)
	}
}

// TestSkewMatrixParallelDeterminism: the rendered matrix must be
// bit-identical across -parallel settings. Run under -race in CI, this
// also shakes out data races between the probe calls.
func TestSkewMatrixParallelDeterminism(t *testing.T) {
	full := corpus(t)
	// A corpus sample keeps the three runs affordable; determinism does
	// not depend on corpus size.
	var inputs []Input
	for i := 0; i < len(full); i += 7 {
		inputs = append(inputs, full[i])
	}
	pairs := []versions.Pair{
		mustPair(t, "3.2.1/3.1.2->3.2.1/3.1.2"),
		mustPair(t, "2.3.0/2.3.9->3.2.1/3.1.2"),
	}
	var rendered []string
	for _, parallel := range []int{0, 2, 8} {
		m, err := RunSkewMatrix(inputs, pairs, RunOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		rendered = append(rendered, m.Render())
	}
	for i := 1; i < len(rendered); i++ {
		if rendered[i] != rendered[0] {
			t.Errorf("matrix render differs between parallel settings:\n--- parallel=0 ---\n%s\n--- run %d ---\n%s",
				rendered[0], i, rendered[i])
		}
	}
}

// TestSkewRejectsUnknownProfiles: version validation rejects — never
// normalizes — unknown profiles, at both the deployment and run entry
// points.
func TestSkewRejectsUnknownProfiles(t *testing.T) {
	bad := versions.Pair{
		Writer: versions.Stack{Spark: "1.6.0", Hive: versions.Hive31},
		Reader: versions.BaselineStack(),
	}
	if _, err := NewSkewDeployment(bad); err == nil {
		t.Error("NewSkewDeployment accepted an unknown Spark profile")
	}
	if _, err := RunSkew(nil, bad, RunOptions{}); err == nil {
		t.Error("RunSkew accepted an unknown Spark profile")
	}
	if _, err := Run(nil, RunOptions{Versions: &bad}); err == nil {
		t.Error("Run accepted an unknown Spark profile")
	}
	if _, err := RunTables(nil, RunOptions{Versions: &bad}); err == nil {
		t.Error("RunTables accepted an unknown Spark profile")
	}
}

func mustPair(t *testing.T, spec string) versions.Pair {
	t.Helper()
	p, err := versions.ParsePair(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refVersionSkewOracle is the skew oracle as first written: both probe
// views are heap-allocated for every case, whether or not they differ.
func refVersionSkewOracle(cases []*CaseResult) []Failure {
	var out []Failure
	for _, c := range cases {
		if c.Write.Err == nil {
			writerView := &CaseResult{Input: c.Input, Plan: c.Plan, Format: c.Format, Table: c.Table,
				Write: c.Write, Read: c.WriterRead}
			if key, peerKey := outcomeKey(c), outcomeKey(writerView); key != peerKey {
				out = append(out, Failure{
					Oracle:    csi.OracleVersionSkew,
					Case:      c,
					Peer:      writerView,
					Signature: "skew-" + classifySkew(writerView, c),
					Detail: fmt.Sprintf("read skew: writer stack sees [%s], reader stack sees [%s] for %s",
						peerKey, key, c.Describe()),
				})
			}
		}
		readerView := &CaseResult{Input: c.Input, Plan: c.Plan, Format: c.Format, Table: c.Table + "_rw",
			Write: c.RWWrite, Read: c.RWRead}
		if key, peerKey := outcomeKey(c), outcomeKey(readerView); key != peerKey {
			out = append(out, Failure{
				Oracle:    csi.OracleVersionSkew,
				Case:      c,
				Peer:      readerView,
				Signature: "skew-" + classifySkew(c, readerView),
				Detail: fmt.Sprintf("write skew: writer-stack write yields [%s], reader-stack write yields [%s] for %s",
					key, peerKey, c.Describe()),
			})
		}
	}
	return out
}

// skewCases runs the first 20 base-corpus inputs on a pair and returns
// the executed cases with their probe outcomes.
func skewCases(t *testing.T, pair versions.Pair) []*CaseResult {
	t.Helper()
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSkew(base[:20], pair, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cases
}

// The skew oracle builds its probe views on the stack and copies one to
// the heap only as a failure's Peer; its failures are the reference's,
// in the same order, down to the reader view's "_rw" table.
func TestVersionSkewOracleMatchesReference(t *testing.T) {
	var total int
	for _, pair := range versions.DefaultPairs() {
		cases := skewCases(t, pair)
		got, want := versionSkewOracle(cases), refVersionSkewOracle(cases)
		if len(got) != len(want) {
			t.Fatalf("%s: %d failures, reference has %d", pair, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Oracle != w.Oracle || g.Case != w.Case || g.Signature != w.Signature || g.Detail != w.Detail {
				t.Fatalf("%s failure %d:\n got  %+v\n want %+v", pair, i, g, w)
			}
			if g.Peer.Table != w.Peer.Table || !reflect.DeepEqual(*g.Peer, *w.Peer) {
				t.Fatalf("%s failure %d: peer %+v, want %+v", pair, i, *g.Peer, *w.Peer)
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no pair raised a skew failure; the comparison is vacuous")
	}
}

// A case whose probes agree with it allocates no probe view: judging
// it costs less than one CaseResult.
func TestVersionSkewOracleAgreeingCaseAllocatesNoView(t *testing.T) {
	cases := skewCases(t, mustPair(t, "2.3.0/2.3.9->3.2.1/3.1.2"))
	var agreeing []*CaseResult
	for _, c := range cases {
		if len(versionSkewOracle([]*CaseResult{c})) == 0 {
			agreeing = append(agreeing, c)
		}
	}
	if len(agreeing) == 0 || len(agreeing) == len(cases) {
		t.Fatalf("%d of %d cases agree; want some of each", len(agreeing), len(cases))
	}
	const runs = 20
	before := heapAllocBytes()
	for i := 0; i < runs; i++ {
		if f := versionSkewOracle(agreeing); len(f) != 0 {
			t.Fatalf("agreeing cases raised %d failures", len(f))
		}
	}
	perCase := float64(heapAllocBytes()-before) / float64(runs*len(agreeing))
	if view := unsafe.Sizeof(CaseResult{}); perCase >= float64(view) {
		t.Errorf("skew oracle allocates %.0f B per agreeing case; a probe view is %d B", perCase, view)
	}
}
