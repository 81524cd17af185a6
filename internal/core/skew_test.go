package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/csi"
	"repro/internal/inject"
	"repro/internal/obs"
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
	m, err := RunSkewMatrix(corpus(t), versions.DefaultPairs(), RunOptions{Parallel: 8})
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

// streamedFailure is what a streamed failure says, its case and peer
// reduced to their coordinates and tables.
type streamedFailure struct {
	Oracle                       csi.Oracle
	Signature, Detail, Rank      string
	Case, Table, Peer, PeerTable string
}

func streamed(f Failure) streamedFailure {
	r := streamedFailure{Oracle: f.Oracle, Signature: f.Signature, Detail: f.Detail, Rank: f.Rank,
		Case: f.Case.Describe(), Table: f.Case.Table}
	if f.Peer != nil {
		r.Peer, r.PeerTable = f.Peer.Describe(), f.Peer.Table
	}
	return r
}

// A matrix runs each reader stack's control probe once and hands it to
// the later cells with that reader; no failure may notice. Over the
// base corpus, with readers repeating out of order, the failures the
// matrix streams are exactly those of RunSkew run pair by pair, and
// every cell is the cell of its lone run.
func TestRunSkewMatrixSharedProbesMatchPerPairRuns(t *testing.T) {
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pairs := versions.DefaultPairs()
	pairs = append(pairs, pairs[4], pairs[0])
	type lone struct {
		failures []streamedFailure
		cell     SkewCell
	}
	// Lone runs per family filter and pair: the parallelism never
	// changes a run's failures.
	lones := map[string]lone{}
	loneRun := func(t *testing.T, pair versions.Pair, families []string) lone {
		key := strings.Join(families, ",") + "|" + pair.String()
		if l, ok := lones[key]; ok {
			return l
		}
		var l lone
		res, err := RunSkew(base, pair, RunOptions{Families: families,
			OnFailure: func(f Failure) { l.failures = append(l.failures, streamed(f)) }})
		if err != nil {
			t.Fatal(err)
		}
		l.cell = buildSkewCell(pair, res)
		lones[key] = l
		return l
	}
	for _, tc := range []struct {
		name string
		opts RunOptions
	}{
		{"parallel=0", RunOptions{}},
		{"parallel=2", RunOptions{Parallel: 2}},
		{"families=hs", RunOptions{Families: []string{"hs"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []streamedFailure
			var wantCells []SkewCell
			for _, pair := range pairs {
				l := loneRun(t, pair, tc.opts.Families)
				want = append(want, l.failures...)
				wantCells = append(wantCells, l.cell)
			}
			var got []streamedFailure
			opts := tc.opts
			opts.OnFailure = func(f Failure) { got = append(got, streamed(f)) }
			m, err := RunSkewMatrix(base, pairs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("matrix streamed %d failures, lone runs %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("failure %d:\n got  %+v\n want %+v", i, got[i], want[i])
				}
			}
			for i, w := range wantCells {
				if !reflect.DeepEqual(m.Cells[i], w) {
					t.Errorf("cell %d (%s):\n got  %#v\n want %#v", i, w.Pair, m.Cells[i], w)
				}
			}
			if wantCells[1].SkewFailures == 0 {
				t.Error("no skew failure on the full-upgrade pair; the comparison is vacuous")
			}
		})
	}
}

// On an unskewed pair the writer-stack read is the read: both stacks
// carry one profile and conf and decode the same bytes, which is what
// lets the harness take WriterRead from Read there.
func TestUnskewedWriterReadEqualsRead(t *testing.T) {
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewSkewDeployment(versions.DefaultPairs()[0])
	if err != nil {
		t.Fatal(err)
	}
	var rows, errs int
	for i := 0; i < len(base); i += 3 {
		in := base[i]
		for _, plan := range Plans() {
			for _, format := range Formats() {
				table := caseTable("t_", plan.Name(), format, in.ID, 4)
				if d.Write(plan.Write, table, format, in).Err != nil {
					continue
				}
				read := d.ReadSpan(nil, plan.Read, table)
				writer := d.WriterReadSpan(nil, plan.Read, table)
				where := plan.Name() + "/" + format + " " + in.Name
				if fmt.Sprint(read.Err) != fmt.Sprint(writer.Err) {
					t.Errorf("%s: read error %v, writer-stack read error %v", where, read.Err, writer.Err)
				}
				if !reflect.DeepEqual(read.Warnings, writer.Warnings) {
					t.Errorf("%s: read warnings %q, writer-stack read warnings %q", where, read.Warnings, writer.Warnings)
				}
				switch {
				case read.HasRow != writer.HasRow:
					t.Errorf("%s: read has row %v, writer-stack read %v", where, read.HasRow, writer.HasRow)
				case read.HasRow && !reflect.DeepEqual(*read.Value, *writer.Value):
					t.Errorf("%s: read %s, writer-stack read %s", where, read.Value, writer.Value)
				case read.HasRow:
					rows++
				}
				if read.Err != nil {
					errs++
				}
				d.release(table)
			}
		}
	}
	if rows == 0 || errs == 0 {
		t.Fatalf("%d rows and %d read errors compared; want some of each", rows, errs)
	}
}

// A traced matrix says where a reused probe ran: a later cell's case
// span names the pair whose cell ran the reader-stack control and holds
// no "_rw" span, while the first cell's case span holds the sibling's
// write and read.
func TestRunSkewMatrixTracesProbeOrigin(t *testing.T) {
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pairs := versions.DefaultPairs()[:2] // one reader stack, two writers
	tr := obs.NewTracer(nil)
	if _, err := RunSkewMatrix(base[:2], pairs, RunOptions{Tracer: tr, Families: []string{"ss"}}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	children := map[int64][]int{}
	for i, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], i)
	}
	// rwOps lists the warehouse operations under root on "_rw" tables.
	var rwOps func(id int64, ops []string) []string
	rwOps = func(id int64, ops []string) []string {
		for _, ci := range children[id] {
			s := spans[ci]
			for _, a := range s.Attrs {
				if strings.Contains(a.Value, "_rw/") && strings.HasPrefix(s.Name, "warehouse/") {
					ops = append(ops, s.Name)
				}
			}
			ops = rwOps(s.ID, ops)
		}
		return ops
	}
	attr := func(s obs.Span, key string) string {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	var first, later int
	for _, ri := range children[0] {
		root := spans[ri]
		ops := rwOps(root.ID, nil)
		from := attr(root, obs.AttrProbeFrom)
		switch attr(root, obs.AttrWriterStack) {
		case pairs[0].Writer.String():
			first++
			if from != "" {
				t.Errorf("first cell's case %s carries %s=%s", root.Name, obs.AttrProbeFrom, from)
			}
			if !slices.Contains(ops, "warehouse/write") || !slices.Contains(ops, "warehouse/read") {
				t.Errorf("first cell's case %s: _rw operations %v, want its write and read", root.Name, ops)
			}
		case pairs[1].Writer.String():
			later++
			if from != pairs[0].String() {
				t.Errorf("later cell's case %s: %s=%q, want %q", root.Name, obs.AttrProbeFrom, from, pairs[0])
			}
			if len(ops) != 0 {
				t.Errorf("later cell's case %s reran the probe: %v", root.Name, ops)
			}
		}
	}
	if first == 0 || first != later {
		t.Fatalf("%d first-cell and %d later-cell case spans", first, later)
	}
}
