package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/inject"
	"repro/internal/sqlval"
)

func corpus(t *testing.T) []Input {
	t.Helper()
	inputs, err := BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return inputs
}

// subset filters the corpus by name prefixes, keeping ablation runs
// fast while exercising the relevant code paths.
func subset(t *testing.T, prefixes ...string) []Input {
	t.Helper()
	var out []Input
	for _, in := range corpus(t) {
		for _, p := range prefixes {
			if strings.HasPrefix(in.Name, p) {
				out = append(out, in)
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("empty subset")
	}
	return out
}

func TestCorpusMatchesPaperCounts(t *testing.T) {
	inputs := corpus(t)
	if len(inputs) != CorpusSize {
		t.Errorf("corpus size = %d, want %d", len(inputs), CorpusSize)
	}
	valid, invalid := 0, 0
	for _, in := range inputs {
		if in.Valid {
			valid++
		} else {
			invalid++
		}
	}
	if valid != CorpusValid || invalid != CorpusInvalid {
		t.Errorf("valid/invalid = %d/%d, want %d/%d", valid, invalid, CorpusValid, CorpusInvalid)
	}
}

func TestCorpusCoversAllKinds(t *testing.T) {
	seen := map[sqlval.Kind]bool{}
	for _, in := range corpus(t) {
		seen[in.Type.Kind] = true
	}
	for _, k := range []sqlval.Kind{
		sqlval.KindBoolean, sqlval.KindTinyInt, sqlval.KindSmallInt, sqlval.KindInt,
		sqlval.KindBigInt, sqlval.KindFloat, sqlval.KindDouble, sqlval.KindDecimal,
		sqlval.KindString, sqlval.KindChar, sqlval.KindVarchar, sqlval.KindBinary,
		sqlval.KindDate, sqlval.KindTimestamp, sqlval.KindArray, sqlval.KindMap,
		sqlval.KindStruct,
	} {
		if !seen[k] {
			t.Errorf("no corpus input of kind %v", k)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := corpus(t)
	b := corpus(t)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Literal != b[i].Literal {
			t.Fatalf("corpus not deterministic at %d", i)
		}
	}
}

func TestPlansMatchFigure6(t *testing.T) {
	plans := Plans()
	if len(plans) != 8 {
		t.Fatalf("plans = %d, want 8", len(plans))
	}
	families := map[string]int{}
	for _, p := range plans {
		families[p.Family]++
	}
	if families["ss"] != 4 || families["sh"] != 2 || families["hs"] != 2 {
		t.Errorf("families = %v", families)
	}
	if len(Formats()) != 3 {
		t.Errorf("formats = %v", Formats())
	}
	if Plans()[0].Name() != "w_sql_r_sql" || Plans()[5].Name() != "w_df_r_hive" {
		t.Errorf("plan names = %s, %s", Plans()[0].Name(), Plans()[5].Name())
	}
}

// TestFullRunFindsFifteenDiscrepancies is the headline §8.2 result: the
// simple cross-testing of Figure 6 exposes 15 distinct discrepancies on
// the Spark-Hive data plane, with the paper's category tallies.
func TestFullRunFindsFifteenDiscrepancies(t *testing.T) {
	res, err := Run(corpus(t), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.DistinctKnown(); len(got) != 15 {
		t.Errorf("distinct known = %v, want all 15", got)
	}
	if unknown := res.Report.UnknownSignatures(); len(unknown) != 0 {
		t.Errorf("unknown signatures = %v", unknown)
	}
	counts := res.Report.JSON().Categories
	for cat, want := range inject.PaperCategoryCounts {
		if counts[string(cat)] != want {
			t.Errorf("category %s = %d, want %d", cat, counts[string(cat)], want)
		}
	}
	// All three oracles fired.
	for _, o := range []csi.Oracle{csi.OracleWriteRead, csi.OracleErrorHandling, csi.OracleDifferential} {
		if res.Report.ByOracle[o] == 0 {
			t.Errorf("oracle %v produced no failures", o)
		}
	}
	// The rendered report names every JIRA id.
	text := res.Report.Render()
	for _, id := range []string{"SPARK-39075", "SPARK-39158", "HIVE-26533", "HIVE-26531", "SPARK-40439",
		"HIVE-26528", "SPARK-40616", "SPARK-40525", "SPARK-40624", "SPARK-40629", "SPARK-40637", "SPARK-40630"} {
		if !strings.Contains(text, id) {
			t.Errorf("report missing %s", id)
		}
	}
}

// TestFixConfigsResolveDiscrepancies verifies the "relying on custom
// (non-default) configurations" finding: re-running under a
// discrepancy's fix configuration makes that discrepancy disappear.
func TestFixConfigsResolveDiscrepancies(t *testing.T) {
	cases := []struct {
		number   int
		prefixes []string
	}{
		{2, []string{"decimal_simple", "decimal_neg"}},
		{5, []string{"decimal_excess", "decimal_too_wide"}},
		{6, []string{"ts_noon", "ts_micros"}},
		{7, []string{"date_pregregorian"}},
		{8, []string{"char_short"}},
		{10, []string{"int_over", "int_under"}},
		{11, []string{"tinyint_over", "tinyint_under", "smallint_over"}},
	}
	reg := map[int]inject.Discrepancy{}
	for _, d := range inject.Registry() {
		reg[d.Number] = d
	}
	for _, c := range cases {
		d := reg[c.number]
		if len(d.FixConf) == 0 {
			t.Fatalf("#%d has no fix config", c.number)
		}
		inputs := subset(t, c.prefixes...)

		base, err := Run(inputs, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !containsInt(base.Report.DistinctKnown(), c.number) {
			t.Errorf("#%d not found under default config (found %v)", c.number, base.Report.DistinctKnown())
			continue
		}
		fixed, err := Run(inputs, RunOptions{SparkConf: d.FixConf})
		if err != nil {
			t.Fatal(err)
		}
		// The fix configuration unifies behaviour across interfaces: the
		// write-read and differential oracles must go quiet for this
		// discrepancy. Error-handling failures can legitimately remain —
		// a legacy policy silences errors rather than adding feedback —
		// and the Avro metastore widening (#3) keeps a residual
		// interaction on that format, so the check covers ORC/Parquet.
		sigs := map[string]bool{}
		for _, s := range d.Signatures {
			sigs[s] = true
		}
		for _, f := range fixed.Failures {
			if !sigs[f.Signature] || f.Oracle == csi.OracleErrorHandling || f.Case.Format == "avro" ||
				(f.Peer != nil && f.Peer.Format == "avro") {
				continue
			}
			t.Errorf("#%d still fails under fix config %v: %s oracle=%v", c.number, d.FixConf, f.Detail, f.Oracle)
		}
	}
}

func containsInt(s []int, n int) bool {
	for _, v := range s {
		if v == n {
			return true
		}
	}
	return false
}

func TestWriteReadOracleOnCleanSubset(t *testing.T) {
	// Plain strings and ints round-trip everywhere: no failures at all.
	inputs := subset(t, "string_simple", "int_small", "bool_true")
	res, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Errorf("clean subset failures: %v", res.Failures[0].Detail)
	}
}

func TestErrorHandlingOracleFlagsSilentStores(t *testing.T) {
	inputs := subset(t, "bool_invalid_yes")
	res, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eh := 0
	for _, f := range res.Failures {
		if f.Oracle == csi.OracleErrorHandling {
			eh++
			if f.Signature != "insert-boolean-invalid" {
				t.Errorf("signature = %s", f.Signature)
			}
			// The silent paths are DataFrame writes and Hive writes;
			// SparkSQL rejects with feedback.
			if f.Case.Plan.Write == SparkSQL {
				t.Errorf("SparkSQL write should not fail EH: %s", f.Case.Describe())
			}
		}
	}
	if eh == 0 {
		t.Error("no EH failures for invalid boolean")
	}
}

func TestDifferentialOracleCrossFormat(t *testing.T) {
	// D4: non-string map keys fail only on Avro.
	inputs := subset(t, "map_int_string")
	res, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := res.Report.DistinctKnown()
	if !containsInt(found, 4) {
		t.Errorf("D4 not found: %v", found)
	}
}

func TestFamilyFilter(t *testing.T) {
	inputs := subset(t, "ts_noon")
	res, err := Run(inputs, RunOptions{Families: []string{"ss"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cases {
		if c.Plan.Family != "ss" {
			t.Errorf("unexpected family %s", c.Plan.Family)
		}
	}
	// The timestamp-zone discrepancy needs the sh family; ss alone is
	// clean for timestamps.
	if containsInt(res.Report.DistinctKnown(), 6) {
		t.Error("D6 should not appear in ss-only run")
	}
}

func TestDeploymentWriteUnknownInterface(t *testing.T) {
	d := NewDeployment()
	in := corpus(t)[0]
	if out := d.Write(Iface("bogus"), "t", "orc", in); out.Err == nil {
		t.Error("unknown interface should error")
	}
	if out := d.Read(Iface("bogus"), "t"); out.Err == nil {
		t.Error("unknown interface should error")
	}
}

func TestClassifyTargetFamilies(t *testing.T) {
	cases := map[string]sqlval.Type{
		"insert-decimal-range":    sqlval.DecimalType(5, 2),
		"insert-smallint-range":   sqlval.TinyInt,
		"insert-int-range":        sqlval.BigInt,
		"insert-float-invalid":    sqlval.Float,
		"insert-datetime-invalid": sqlval.Date,
		"insert-boolean-invalid":  sqlval.Boolean,
		"insert-charlength":       sqlval.VarcharType(4),
	}
	for want, typ := range cases {
		if got := classifyTargetFamily(typ); got != want {
			t.Errorf("classifyTargetFamily(%v) = %s, want %s", typ, got, want)
		}
	}
}

func TestRegistrySignaturesAreComplete(t *testing.T) {
	// Every registry entry has at least one signature and the category
	// tallies equal the paper's.
	sigs := inject.BySignature()
	if len(sigs) == 0 {
		t.Fatal("empty signature index")
	}
	var numbers []int
	for _, d := range inject.Registry() {
		numbers = append(numbers, d.Number)
	}
	counts := inject.CategoryCounts(numbers)
	for cat, want := range inject.PaperCategoryCounts {
		if counts[cat] != want {
			t.Errorf("registry category %s = %d, want %d", cat, counts[cat], want)
		}
	}
	if len(inject.Registry()) != 15 {
		t.Errorf("registry size = %d", len(inject.Registry()))
	}
}

func TestWideTableBuild(t *testing.T) {
	cols := BuildWideTable(corpus(t))
	if len(cols) < 15 {
		t.Fatalf("wide columns = %d, want one per distinct type", len(cols))
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			t.Errorf("duplicate column name %s", c.Name)
		}
		seen[c.Name] = true
		if !c.Input.Valid {
			t.Errorf("invalid input %s in wide table", c.Input.Name)
		}
	}
}

// failureOrder lists a run's failures in emission order, one line per
// failure with every field a consumer sees.
func failureOrder(failures []Failure) []string {
	out := make([]string, len(failures))
	for i, f := range failures {
		peer := ""
		if f.Peer != nil {
			peer = f.Peer.Describe()
		}
		out[i] = f.Oracle.String() + "|" + f.Signature + "|" + f.Case.Describe() + "|" + peer + "|" + f.Detail
	}
	return out
}

// sameFailureOrder fails the test where two runs emitted different
// failures or the same failures in a different order.
func sameFailureOrder(t *testing.T, mode string, first, second []Failure) {
	t.Helper()
	a, b := failureOrder(first), failureOrder(second)
	if len(a) != len(b) {
		t.Fatalf("%s rerun: %d failures, first run %d", mode, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s rerun differs at failure %d:\n first: %s\nsecond: %s", mode, i, a[i], b[i])
		}
	}
}

func TestRunWideFindsCrossColumnDiscrepancies(t *testing.T) {
	res, err := RunWide(corpus(t), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The counts crosstest -wide prints.
	if len(res.Columns) != 20 || len(res.Failures) != 374 {
		t.Errorf("wide run: %d columns, %d failures; want 20, 374", len(res.Columns), len(res.Failures))
	}
	if got := res.Report.DistinctKnown(); !reflect.DeepEqual(got, []int{2, 4, 6, 8}) {
		t.Errorf("wide run known = %v, want [2 4 6 8]", got)
	}
	// Failures come out in one deterministic order, run after run.
	again, err := RunWide(corpus(t), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameFailureOrder(t, "wide", res.Failures, again.Failures)
	if unknown := res.Report.UnknownSignatures(); len(unknown) != 0 {
		t.Errorf("unknown signatures = %v", unknown)
	}
	found := res.Report.DistinctKnown()
	// The wide table must surface at least the Avro map-key rejection
	// (#4, which fails the whole Avro table), the legacy-decimal column
	// poisoning Hive reads (#2), and the timestamp/char column
	// discrepancies (#6, #8). #7 needs a pre-Gregorian date, which the
	// one-column-per-type selection does not include (it picks the
	// modern date).
	for _, want := range []int{2, 4, 6, 8} {
		if !containsInt(found, want) {
			t.Errorf("wide run missed #%d: %v", want, found)
		}
	}
}

func TestRunWideWithoutMapColumn(t *testing.T) {
	// Excluding the Avro-poisoning map<int,_> column lets the per-column
	// discrepancies surface on Avro too.
	var filtered []Input
	for _, in := range corpus(t) {
		if in.Name == "map_int_string" {
			continue
		}
		filtered = append(filtered, in)
	}
	res, err := RunWide(filtered, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := res.Report.DistinctKnown()
	for _, want := range []int{1, 3} {
		if !containsInt(found, want) {
			t.Errorf("wide run missed #%d: %v", want, found)
		}
	}
	if unknown := res.Report.UnknownSignatures(); len(unknown) != 0 {
		t.Errorf("unknown signatures = %v", unknown)
	}
}

func TestParallelRunMatchesSequential(t *testing.T) {
	inputs, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(inputs, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := seq.Report.DistinctKnown(), par.Report.DistinctKnown()
	if len(a) != len(b) {
		t.Fatalf("distinct: seq=%v par=%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("distinct: seq=%v par=%v", a, b)
		}
	}
	if len(seq.Failures) != len(par.Failures) {
		t.Errorf("failures: seq=%d par=%d", len(seq.Failures), len(par.Failures))
	}
}

func TestConfigSweep(t *testing.T) {
	inputs, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]map[string]string{
		"default":     nil,
		"utc-session": {"spark.sql.session.timeZone": "UTC"},
	}
	cells, err := ConfigSweep(inputs, []string{"default", "utc-session"}, configs, RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if len(cells[0].Distinct) != 15 {
		t.Errorf("baseline distinct = %v", cells[0].Distinct)
	}
	// UTC resolves the timestamp-zone discrepancy (#6) and introduces
	// nothing.
	if !containsInt(cells[1].Resolved, 6) {
		t.Errorf("utc-session resolved = %v, want #6", cells[1].Resolved)
	}
	if len(cells[1].Introduced) != 0 {
		t.Errorf("utc-session introduced = %v", cells[1].Introduced)
	}
	text := RenderSweep(cells)
	if !strings.Contains(text, "utc-session") || !strings.Contains(text, "#6") {
		t.Errorf("render = %q", text)
	}
	if _, err := ConfigSweep(inputs, []string{"nope"}, configs, RunOptions{Parallel: 1}); err == nil {
		t.Error("unknown config should error")
	}
}

func TestRunPartitionsSurfacesCandidateDiscrepancy(t *testing.T) {
	res, err := RunPartitions("orc", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The count crosstest -partitions prints.
	if len(res.Failures) != 16 {
		t.Errorf("partition mode: %d failures, want 16", len(res.Failures))
	}
	again, err := RunPartitions("orc", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameFailureOrder(t, "partitions", res.Failures, again.Failures)
	// The escaping divergence is NOT one of the known 15: it must
	// surface as an unmapped signature — a candidate new discrepancy.
	unknown := res.Report.UnknownSignatures()
	foundCandidate := false
	for _, sig := range unknown {
		if sig == "partition-path-escaping" {
			foundCandidate = true
		}
	}
	if !foundCandidate {
		t.Errorf("unknown signatures = %v, want partition-path-escaping", unknown)
	}
	// Plain values round-trip everywhere: no failures mention them.
	for _, f := range res.Failures {
		if f.Case.Input.Name == "partition_plain" {
			t.Errorf("plain partition value failed: %s", f.Detail)
		}
	}
	// The space value is the canonical divergence.
	seenSpace := false
	for _, f := range res.Failures {
		if f.Case.Input.Name == "partition_space" {
			seenSpace = true
		}
	}
	if !seenSpace {
		t.Error("space partition value did not diverge")
	}
}

func TestOracleLogs(t *testing.T) {
	inputs := subset(t, "char_short", "bool_invalid_yes", "ts_noon")
	res, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logs := res.OracleLogs()
	if len(logs) == 0 {
		t.Fatal("no logs")
	}
	valid := map[string]bool{}
	for _, name := range oracleNames() {
		valid[name] = true
	}
	for key, entries := range logs {
		if !valid[key] {
			t.Errorf("unexpected log key %q", key)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Index < entries[i-1].Index {
				t.Errorf("%s not sorted by input index", key)
			}
		}
	}
	// The difft entries carry the differing peer.
	difft, ok := logs["sh_difft"]
	if !ok || difft[0].Peer == "" {
		t.Errorf("sh_difft = %v", difft)
	}

	dir := t.TempDir()
	names, err := res.WriteOracleLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every producible group gets a file — empty groups as empty arrays.
	if len(names) < len(oracleNames()) {
		t.Errorf("wrote %d files, want at least the %d standard groups", len(names), len(oracleNames()))
	}
	for _, name := range oracleNames() {
		if !containsString(names, name+"_failed.json") {
			t.Errorf("missing log file for group %s", name)
		}
	}

	// Round trip: reading the files back reproduces OracleLogs for the
	// non-empty groups and empty arrays for the rest.
	back := map[string][]LogEntry{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var entries []LogEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Fatalf("%s not valid JSON: %v", name, err)
		}
		back[strings.TrimSuffix(name, "_failed.json")] = entries
	}
	for key, entries := range logs {
		got, ok := back[key]
		if !ok {
			t.Errorf("group %s missing after round trip", key)
			continue
		}
		if !reflect.DeepEqual(got, entries) {
			t.Errorf("group %s changed in round trip:\n got %v\nwant %v", key, got, entries)
		}
	}
	for key, entries := range back {
		if len(entries) > 0 && len(logs[key]) == 0 {
			t.Errorf("round trip invented entries for %s", key)
		}
	}
}

func TestWriteOracleLogsDirIsFile(t *testing.T) {
	inputs := subset(t, "ts_noon")
	res, err := Run(inputs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "logs")
	if err := os.WriteFile(path, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := res.WriteOracleLogs(path); !errors.Is(err, ErrLogDirIsFile) {
		t.Errorf("WriteOracleLogs on a file = %v, want ErrLogDirIsFile", err)
	}
}
