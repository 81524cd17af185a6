package versions

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestProfilesResolve(t *testing.T) {
	for _, v := range SparkVersions() {
		p, ok := GetSparkProfile(v)
		if !ok {
			t.Fatalf("SparkProfile(%q) missing", v)
		}
		if p.Version != v {
			t.Errorf("Spark profile %q carries version %q", v, p.Version)
		}
		if len(p.Conf) == 0 {
			t.Errorf("Spark profile %q ships no configuration defaults", v)
		}
		if len(p.Notes) == 0 {
			t.Errorf("Spark profile %q has no JIRA/migration notes", v)
		}
	}
	for _, v := range HiveVersions() {
		p, ok := GetHiveProfile(v)
		if !ok {
			t.Fatalf("HiveProfile(%q) missing", v)
		}
		if p.Version != v {
			t.Errorf("Hive profile %q carries version %q", v, p.Version)
		}
		if len(p.Notes) == 0 {
			t.Errorf("Hive profile %q has no JIRA/migration notes", v)
		}
	}
	if _, ok := GetSparkProfile("9.9.9"); ok {
		t.Error("unknown Spark version resolved")
	}
	if _, ok := GetHiveProfile("9.9.9"); ok {
		t.Error("unknown Hive version resolved")
	}
}

// Every version-gated behavior must be keyed to an identifiable anchor:
// a JIRA id (PROJECT-NNNN) or a migration-guide key (guide:section).
func TestNotesAreAnchored(t *testing.T) {
	check := func(engine, v string, notes []Note) {
		for _, n := range notes {
			jira := strings.ContainsRune(n.ID, '-') &&
				(strings.HasPrefix(n.ID, "SPARK-") || strings.HasPrefix(n.ID, "HIVE-"))
			guide := strings.ContainsRune(n.ID, ':')
			if !jira && !guide {
				t.Errorf("%s %s note %q is not a JIRA id or migration-guide key", engine, v, n.ID)
			}
			if n.Detail == "" {
				t.Errorf("%s %s note %q has no detail", engine, v, n.ID)
			}
		}
	}
	for _, v := range SparkVersions() {
		check("spark", v, sparkProfiles[v].Notes)
	}
	for _, v := range HiveVersions() {
		check("hive", v, hiveProfiles[v].Notes)
	}
}

// SPARK-24768: built-in Avro exists from 2.4 on, and only from 2.4 on.
func TestBuiltinAvroGate(t *testing.T) {
	for v, want := range map[string]bool{Spark23: false, Spark24: true, Spark32: true} {
		p, _ := GetSparkProfile(v)
		if p.BuiltinAvro != want {
			t.Errorf("Spark %s BuiltinAvro = %v, want %v", v, p.BuiltinAvro, want)
		}
	}
}

// The baseline stack must equal the simulators' unversioned defaults:
// Spark 3.2 ANSI-era confs, Hive 3.1 UTC timestamps + CHAR padding +
// ORC struct fold. The Figure-6 golden pin depends on this.
func TestBaselineProfileMatchesDefaults(t *testing.T) {
	sp, _ := GetSparkProfile(Spark32)
	want := map[string]string{
		"spark.sql.storeAssignmentPolicy":      "ansi",
		"spark.sql.ansi.enabled":               "true",
		"spark.sql.legacy.datetimeRebase":      "false",
		"spark.sql.hive.writeLegacyDecimal":    "true",
		"spark.sql.legacy.charVarcharAsString": "false",
	}
	for k, v := range want {
		if got := sp.Conf[k]; got != v {
			t.Errorf("Spark %s conf %s = %q, want %q", Spark32, k, got, v)
		}
	}
	hp, _ := GetHiveProfile(Hive31)
	if !hp.ReadSideCharPadding || !hp.OrcStructFold || hp.ParquetLocalZoneSeconds != 0 {
		t.Errorf("Hive %s profile diverges from the modeled baseline: %+v", Hive31, hp)
	}
}

func TestParseStackAndPair(t *testing.T) {
	st, err := ParseStack("2.3.0/2.3.9")
	if err != nil {
		t.Fatalf("ParseStack: %v", err)
	}
	if st.Spark != Spark23 || st.Hive != Hive23 {
		t.Fatalf("ParseStack = %+v", st)
	}
	p, err := ParsePair("2.3.0/2.3.9->3.2.1/3.1.2")
	if err != nil {
		t.Fatalf("ParsePair: %v", err)
	}
	if !p.Skewed() {
		t.Error("upgrade pair reported unskewed")
	}
	if got := p.String(); got != "2.3.0/2.3.9->3.2.1/3.1.2" {
		t.Errorf("Pair.String() = %q", got)
	}
	if rt, err := ParsePair(p.String()); err != nil || rt != p {
		t.Errorf("ParsePair round trip = %+v, %v", rt, err)
	}
	// A pair encodes its stacks as their strings and decodes them
	// through ParseStack.
	data, err := json.Marshal(p)
	if err != nil || string(data) != `{"writer":"2.3.0/2.3.9","reader":"3.2.1/3.1.2"}` {
		t.Errorf("json.Marshal(pair) = %s, %v", data, err)
	}
	var rt Pair
	if err := json.Unmarshal(data, &rt); err != nil || rt != p {
		t.Errorf("JSON round trip = %+v, %v", rt, err)
	}
	if err := json.Unmarshal([]byte(`{"writer":"2.3.0/2.3.9","reader":"3.2.1/9.9.9"}`), &rt); err == nil {
		t.Error("JSON decoding accepted an unknown Hive profile")
	}
	// A bare stack is the unskewed pair.
	b, err := ParsePair("3.2.1/3.1.2")
	if err != nil {
		t.Fatalf("ParsePair(bare): %v", err)
	}
	if b.Skewed() || b != (Pair{Writer: BaselineStack(), Reader: BaselineStack()}) {
		t.Errorf("bare stack pair = %+v", b)
	}
	// Unknown profiles are rejected, never normalized.
	for _, bad := range []string{"1.6.0/3.1.2", "3.2.1/0.13.0", "3.2.1", "x->y", "2.3.0/2.3.9->3.2.1/9.9.9"} {
		if _, err := ParsePair(bad); err == nil {
			t.Errorf("ParsePair(%q) accepted an unknown profile", bad)
		}
	}
}

func TestDefaultPairs(t *testing.T) {
	pairs := DefaultPairs()
	if len(pairs) != 5 {
		t.Fatalf("DefaultPairs: %d pairs", len(pairs))
	}
	if pairs[0] != (Pair{Writer: BaselineStack(), Reader: BaselineStack()}) {
		t.Errorf("first default pair is not the baseline: %v", pairs[0])
	}
	seen := map[string]bool{}
	for i, p := range pairs {
		if err := p.Validate(); err != nil {
			t.Errorf("pair %d invalid: %v", i, err)
		}
		if seen[p.String()] {
			t.Errorf("duplicate pair %v", p)
		}
		seen[p.String()] = true
		if i > 0 && !p.Skewed() {
			t.Errorf("pair %d should be skewed: %v", i, p)
		}
	}
}
