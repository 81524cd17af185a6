// Package versions defines the versioned behavior profiles of the
// simulated Spark and Hive engines — the upgrade axis of the
// cross-system test matrix. The paper identifies software upgrades and
// version mismatches between interacting systems as a leading trigger
// of CSI failures (§5): the same deployment behaves differently because
// the releases ship different defaults and different connector code.
//
// Every version-gated behavior modeled here is keyed to the real JIRA
// issue or migration-guide note that changed it:
//
//   - SPARK-24768: the Avro data source became built in with Spark 2.4;
//     a 2.3 session has no "avro" source at all.
//   - SPARK-26651 / SPARK-31404: Spark 3.0 switched from the hybrid
//     Julian/Gregorian calendar to the proleptic Gregorian calendar;
//     pre-3.0 writers and readers rebase datetimes.
//   - SPARK-28730: Spark 3.0 introduced spark.sql.storeAssignmentPolicy
//     with default "ansi"; 2.x inserts coerce silently ("legacy").
//   - Spark 3.0 SQL migration guide, ANSI section: string-parsing cast
//     strictness (spark.sql.ansi.enabled) does not exist in 2.x.
//   - SPARK-33480: CHAR/VARCHAR became real types in Spark 3.1; before
//     that they were plain STRING (legacy.charVarcharAsString).
//   - HIVE-12192: Hive 3.1 carries out timestamp computations in UTC;
//     earlier Hive interprets stored Parquet timestamps in the local
//     zone.
//   - SPARK-40616 (context): Hive 3 pads CHAR to its declared length on
//     the read side; the modeled Hive 2.3 SerDe returns stored bytes.
//   - SPARK-40637 (context): the all-NULL-struct-folds-to-NULL behavior
//     lives in Hive 3's ORC reader; the modeled Hive 2.3 reader keeps
//     the struct.
//
// The package sits below the simulators: sparksim and hivesim consume
// the profiles, core executes writer-stack × reader-stack pairs, and
// serve/fuzzgen address results by the pair.
package versions

import (
	"fmt"
	"strings"
)

// Supported Spark versions.
const (
	// Spark23 approximates Spark 2.3.0: legacy store assignment and
	// casts, hybrid-calendar datetimes, CHAR/VARCHAR as STRING, and no
	// built-in Avro data source.
	Spark23 = "2.3.0"
	// Spark24 approximates Spark 2.4.8: 2.3 semantics plus the built-in
	// Avro data source of SPARK-24768.
	Spark24 = "2.4.8"
	// Spark32 approximates Spark 3.2.1, the baseline: ANSI store
	// assignment, proleptic Gregorian datetimes, real CHAR/VARCHAR.
	Spark32 = "3.2.1"
)

// Supported Hive versions.
const (
	// Hive23 approximates Hive 2.3.9: local-time Parquet timestamps, no
	// read-side CHAR padding, no ORC all-NULL struct fold.
	Hive23 = "2.3.9"
	// Hive31 approximates Hive 3.1.2, the baseline metastore and SerDe
	// behavior the Figure-6 pin was captured against.
	Hive31 = "3.1.2"
)

// Note keys one version-gated behavior to the JIRA issue or
// migration-guide note that changed it.
type Note struct {
	// ID is a JIRA id ("SPARK-24768") or a migration-guide key
	// ("spark-3.0-migration:ansi").
	ID string
	// Detail is the one-line behavior delta.
	Detail string
}

// SparkProfile is the cross-system-visible personality of one Spark
// release: the configuration defaults it ships and the capabilities it
// has at all.
type SparkProfile struct {
	Version string
	// Conf is the release's defaults for the modeled configuration keys.
	// The literal key strings equal the sparksim.Conf* constants; a test
	// in sparksim pins them against drift (versions cannot import
	// sparksim without a cycle).
	Conf map[string]string
	// BuiltinAvro reports whether the release ships the built-in Avro
	// data source (SPARK-24768, since 2.4). Without it every Avro
	// read/write fails to find the data source.
	BuiltinAvro bool
	Notes       []Note
}

// HiveProfile is the cross-system-visible personality of one Hive
// release: metastore schema handling and SerDe selection gates.
type HiveProfile struct {
	Version string
	// ReadSideCharPadding: Hive 3 pads CHAR(n) to n on the read side;
	// the modeled 2.3 SerDe returns the stored bytes unpadded.
	ReadSideCharPadding bool
	// OrcStructFold: Hive 3's ORC reader folds a struct whose members
	// are all NULL into a NULL struct (the SPARK-40637 behavior); the
	// modeled 2.3 reader keeps the struct.
	OrcStructFold bool
	// ParquetLocalZoneSeconds is the UTC offset the release's Parquet
	// reader applies to stored timestamps. Hive 3.1 computes timestamps
	// in UTC (HIVE-12192) and applies none; earlier Hive interprets the
	// stored instant in the deployment's local zone.
	ParquetLocalZoneSeconds int64
	Notes                   []Note
}

// The literal Spark configuration keys (same strings as the sparksim
// constants; see SparkProfile.Conf).
const (
	confStoreAssignment = "spark.sql.storeAssignmentPolicy"
	confAnsi            = "spark.sql.ansi.enabled"
	confCharAsString    = "spark.sql.legacy.charVarcharAsString"
	confRebase          = "spark.sql.legacy.datetimeRebase"
	confLegacyDecimal   = "spark.sql.hive.writeLegacyDecimal"
)

var sparkProfiles = map[string]SparkProfile{
	Spark23: {
		Version: Spark23,
		Conf: map[string]string{
			confStoreAssignment: "legacy",
			confAnsi:            "false",
			confRebase:          "true",
			confLegacyDecimal:   "true",
			confCharAsString:    "true",
		},
		BuiltinAvro: false,
		Notes: []Note{
			{ID: "SPARK-24768", Detail: "no built-in Avro data source before 2.4"},
			{ID: "SPARK-26651", Detail: "hybrid Julian/Gregorian calendar before 3.0"},
			{ID: "SPARK-28730", Detail: "silent legacy store assignment before 3.0"},
			{ID: "spark-3.0-migration:ansi", Detail: "no ANSI cast strictness before 3.0"},
			{ID: "SPARK-33480", Detail: "CHAR/VARCHAR are plain STRING before 3.1"},
		},
	},
	Spark24: {
		Version: Spark24,
		Conf: map[string]string{
			confStoreAssignment: "legacy",
			confAnsi:            "false",
			confRebase:          "true",
			confLegacyDecimal:   "true",
			confCharAsString:    "true",
		},
		BuiltinAvro: true,
		Notes: []Note{
			{ID: "SPARK-24768", Detail: "built-in Avro data source since 2.4"},
			{ID: "SPARK-26651", Detail: "hybrid Julian/Gregorian calendar before 3.0"},
			{ID: "SPARK-28730", Detail: "silent legacy store assignment before 3.0"},
			{ID: "spark-3.0-migration:ansi", Detail: "no ANSI cast strictness before 3.0"},
			{ID: "SPARK-33480", Detail: "CHAR/VARCHAR are plain STRING before 3.1"},
		},
	},
	Spark32: {
		Version: Spark32,
		Conf: map[string]string{
			confStoreAssignment: "ansi",
			confAnsi:            "true",
			confRebase:          "false",
			confLegacyDecimal:   "true",
			confCharAsString:    "false",
		},
		BuiltinAvro: true,
		Notes: []Note{
			{ID: "SPARK-28730", Detail: "ANSI store assignment by default since 3.0"},
			{ID: "SPARK-26651", Detail: "proleptic Gregorian calendar since 3.0"},
			{ID: "SPARK-33480", Detail: "CHAR/VARCHAR length semantics since 3.1"},
		},
	},
}

var hiveProfiles = map[string]HiveProfile{
	Hive23: {
		Version:             Hive23,
		ReadSideCharPadding: false,
		OrcStructFold:       false,
		// The modeled deployment's local zone, America/Los_Angeles.
		ParquetLocalZoneSeconds: -8 * 3600,
		Notes: []Note{
			{ID: "HIVE-12192", Detail: "local-time timestamp computations before 3.1"},
			{ID: "SPARK-40616", Detail: "no read-side CHAR padding before Hive 3"},
			{ID: "SPARK-40637", Detail: "no ORC all-NULL struct fold before Hive 3"},
		},
	},
	Hive31: {
		Version:                 Hive31,
		ReadSideCharPadding:     true,
		OrcStructFold:           true,
		ParquetLocalZoneSeconds: 0,
		Notes: []Note{
			{ID: "HIVE-12192", Detail: "timestamp computations in UTC since 3.1"},
		},
	},
}

// GetSparkProfile returns a Spark release's profile.
func GetSparkProfile(version string) (SparkProfile, bool) {
	p, ok := sparkProfiles[version]
	return p, ok
}

// GetHiveProfile returns a Hive release's profile.
func GetHiveProfile(version string) (HiveProfile, bool) {
	p, ok := hiveProfiles[version]
	return p, ok
}

// SparkVersions lists the supported Spark versions in release order.
func SparkVersions() []string { return []string{Spark23, Spark24, Spark32} }

// HiveVersions lists the supported Hive versions in release order.
func HiveVersions() []string { return []string{Hive23, Hive31} }

// Stack is one deployed engine pair: the Spark and Hive versions that
// run side by side over the shared metastore and warehouse. It encodes
// as its "spark/hive" string and decodes through ParseStack, so a
// decoded stack always names known profiles.
type Stack struct {
	Spark string
	Hive  string
}

// String renders the stack as "spark/hive", e.g. "3.2.1/3.1.2".
func (s Stack) String() string { return s.Spark + "/" + s.Hive }

// MarshalText encodes the stack as its String form.
func (s Stack) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a "spark/hive" stack, rejecting unknown
// profiles as ParseStack does.
func (s *Stack) UnmarshalText(text []byte) error {
	st, err := ParseStack(string(text))
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// Validate rejects a stack naming an unknown profile. It never
// normalizes: an unknown version is an error, not a fallback to a
// default — a cache key or a test matrix must not silently alias two
// different deployments.
func (s Stack) Validate() error {
	if _, ok := sparkProfiles[s.Spark]; !ok {
		return fmt.Errorf("versions: unknown Spark version %q (have %v)", s.Spark, SparkVersions())
	}
	if _, ok := hiveProfiles[s.Hive]; !ok {
		return fmt.Errorf("versions: unknown Hive version %q (have %v)", s.Hive, HiveVersions())
	}
	return nil
}

// ParseStack parses "spark/hive" (e.g. "2.3.0/2.3.9") and validates it.
func ParseStack(s string) (Stack, error) {
	spark, hive, ok := strings.Cut(s, "/")
	if !ok {
		return Stack{}, fmt.Errorf("versions: want sparkVersion/hiveVersion, got %q", s)
	}
	st := Stack{Spark: spark, Hive: hive}
	if err := st.Validate(); err != nil {
		return Stack{}, err
	}
	return st, nil
}

// Pair is one cell of the skew matrix: data is written by the Writer
// stack and read by the Reader stack across the shared metastore and
// warehouse — the upgrade boundary.
type Pair struct {
	Writer Stack `json:"writer"`
	Reader Stack `json:"reader"`
}

// String renders the pair as "writer->reader",
// e.g. "2.3.0/2.3.9->3.2.1/3.1.2".
func (p Pair) String() string { return p.Writer.String() + "->" + p.Reader.String() }

// Skewed reports whether the writer and reader stacks differ.
func (p Pair) Skewed() bool { return p.Writer != p.Reader }

// Validate rejects a pair whose either side names an unknown profile.
func (p Pair) Validate() error {
	if err := p.Writer.Validate(); err != nil {
		return err
	}
	return p.Reader.Validate()
}

// ParsePair parses "writerSpark/writerHive->readerSpark/readerHive".
// A bare "spark/hive" stack means an unskewed pair (writer == reader).
func ParsePair(s string) (Pair, error) {
	w, r, ok := strings.Cut(s, "->")
	if !ok {
		st, err := ParseStack(s)
		if err != nil {
			return Pair{}, err
		}
		return Pair{Writer: st, Reader: st}, nil
	}
	ws, err := ParseStack(w)
	if err != nil {
		return Pair{}, err
	}
	rs, err := ParseStack(r)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Writer: ws, Reader: rs}, nil
}

// BaselineStack is the stack the golden Figure-6 pin was captured
// against: Spark 3.2.1 with Hive 3.1.2.
func BaselineStack() Stack { return Stack{Spark: Spark32, Hive: Hive31} }

// DefaultPairs is the default skew matrix: the baseline, a full
// upgrade (old cluster wrote, new cluster reads), a half-upgraded
// writer (Spark 2.4 already has built-in Avro), a Hive-only upgrade
// (isolates the Hive 2.3 vs 3.1 read-side behaviors), and a
// downgrade-read (new cluster wrote, old cluster reads — the rollback
// scenario).
func DefaultPairs() []Pair {
	old := Stack{Spark: Spark23, Hive: Hive23}
	half := Stack{Spark: Spark24, Hive: Hive23}
	oldHive := Stack{Spark: Spark32, Hive: Hive23}
	now := BaselineStack()
	return []Pair{
		{Writer: now, Reader: now},
		{Writer: old, Reader: now},
		{Writer: half, Reader: now},
		{Writer: oldHive, Reader: now},
		{Writer: now, Reader: old},
	}
}
