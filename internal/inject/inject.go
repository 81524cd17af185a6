// Package inject is the registry of the 15 Spark–Hive data-plane
// discrepancies modeled by the simulators (§8.2 of the paper). Each
// entry records the JIRA issue it reproduces, the §8.2 problem
// categories it belongs to, the classifier signatures that map observed
// test failures onto it, and — when one exists — the configuration that
// resolves it ("relying on custom (non-default) configurations").
//
// The registry is the ground truth the cross-testing harness is
// validated against: the harness must *discover* all 15 through its
// oracles without consulting the registry.
package inject

// Category is a §8.2 problem category.
type Category string

// The five problem categories of §8.2.
const (
	CannotRead        Category = "cannot-read-what-was-written"
	TypeViolation     Category = "type-violation"
	ConfigExposure    Category = "exposing-internal-configurations"
	InconsistentError Category = "inconsistent-error-behavior"
	CustomConfig      Category = "relying-on-custom-configurations"
)

// Categories lists the five categories with the paper's counts.
func Categories() []Category {
	return []Category{CannotRead, TypeViolation, ConfigExposure, InconsistentError, CustomConfig}
}

// PaperCategoryCounts are the §8.2 counts (2/2/5/7/8 of 15).
var PaperCategoryCounts = map[Category]int{
	CannotRead:        2,
	TypeViolation:     2,
	ConfigExposure:    5,
	InconsistentError: 7,
	CustomConfig:      8,
}

// Discrepancy is one modeled Spark–Hive data-plane discrepancy.
type Discrepancy struct {
	Number     int    // 1..15, the paper's artifact numbering
	JIRA       string // primary issue id ("" for the two unreported ones)
	Title      string // one-line description
	Categories []Category
	// Signatures are the classifier keys that map harness failures to
	// this discrepancy.
	Signatures []string
	// FixConf is the session configuration that resolves or unifies the
	// behaviour (empty when no configuration addresses it).
	FixConf map[string]string
	// Module names the code module the discrepancy's behaviour lives in.
	// Finding 13/14: most CSI fixes land in dedicated connector modules,
	// which makes connectors "an effective starting point for CSI
	// testing and verification".
	Module string
	// InConnector reports whether that module is a dedicated
	// cross-system connector (vs. generic engine code).
	InConnector bool
	// SinceVersion is the "system:version" that introduced the
	// discrepancy-relevant behavior ("" when it predates every modeled
	// version). FixedIn is the "system:version" whose defaults remove it
	// ("" when no modeled version does). A version-skew run whose pair
	// straddles one of these boundaries sees the discrepancy on one side
	// only — that is the cell-by-cell content of the skew matrix.
	SinceVersion string
	FixedIn      string
	// VersionNote anchors the boundary to the JIRA issue or
	// migration-guide entry that moved it.
	VersionNote string
}

// Registry returns the 15 discrepancies in artifact order.
func Registry() []Discrepancy {
	return []Discrepancy{
		{
			Number: 1, JIRA: "SPARK-39075",
			SinceVersion: "spark:2.4.0", VersionNote: "SPARK-24768",
			Module: "spark-avro connector (AvroDeserializer)", InConnector: true,
			Title:      "Avro widens BYTE/SHORT to INT on write; the DataFrame reader throws IncompatibleSchemaException reading them back",
			Categories: []Category{CannotRead, ConfigExposure, InconsistentError},
			Signatures: []string{"avro-incompatible-schema"},
		},
		{
			Number: 2, JIRA: "SPARK-39158",
			Module: "spark-hive connector (legacy decimal writer)", InConnector: true,
			Title:      "Decimals written by the DataFrame writer use Spark's legacy binary encoding; HiveQL reads fail with SerDeException",
			Categories: []Category{CannotRead, ConfigExposure},
			Signatures: []string{"legacy-binary-decimal"},
			FixConf:    map[string]string{"spark.sql.hive.writeLegacyDecimal": "false"},
		},
		{
			Number: 3, JIRA: "HIVE-26533",
			SinceVersion: "spark:2.4.0", VersionNote: "SPARK-24768",
			Module: "hive Avro SerDe + HiveExternalCatalog fallback", InConnector: true,
			Title:      "SparkSQL write/read via Avro converts BYTE/SHORT to INT and loses column-name case (warning: not case preserving)",
			Categories: []Category{TypeViolation, ConfigExposure},
			Signatures: []string{"integral-widening"},
		},
		{
			Number: 4, JIRA: "HIVE-26531",
			SinceVersion: "spark:2.4.0", VersionNote: "SPARK-24768",
			Module: "hive Avro SerDe (schema conversion)", InConnector: true,
			Title:      "Avro rejects non-string map keys that ORC and Parquet accept",
			Categories: []Category{ConfigExposure},
			Signatures: []string{"avro-map-key"},
		},
		{
			Number: 5, JIRA: "SPARK-40439",
			SinceVersion: "spark:3.0.0", VersionNote: "SPARK-28730",
			Module: "spark sql store assignment (generic insert path)", InConnector: false,
			Title:      "Decimal with excess precision: SparkSQL throws, DataFrame writes NULL silently",
			Categories: []Category{InconsistentError, CustomConfig},
			Signatures: []string{"insert-decimal-range"},
			FixConf:    map[string]string{"spark.sql.storeAssignmentPolicy": "legacy"},
		},
		{
			Number: 6, JIRA: "HIVE-26528",
			Module: "spark-parquet connector (INT96 timestamp writer)", InConnector: true,
			Title:      "Spark's Parquet INT96 writer stores session-zone-adjusted timestamps; Hive ignores the writer zone and reads shifted values",
			Categories: []Category{ConfigExposure},
			Signatures: []string{"timestamp-zone"},
			FixConf:    map[string]string{"spark.sql.session.timeZone": "UTC"},
		},
		{
			Number: 7, JIRA: "",
			SinceVersion: "spark:3.0.0", VersionNote: "SPARK-26651",
			Module: "spark/hive datetime rebase (generic)", InConnector: false,
			Title:      "Same root cause as #6, different behavior: pre-Gregorian dates shift between the proleptic and hybrid calendars",
			Categories: nil,
			Signatures: []string{"date-rebase"},
			FixConf:    map[string]string{"spark.sql.legacy.datetimeRebase": "true"},
		},
		{
			Number: 8, JIRA: "SPARK-40616",
			SinceVersion: "spark:3.1.0", VersionNote: "SPARK-33480",
			Module: "spark char/varchar read handling (generic)", InConnector: false,
			Title:      "CHAR(n): Hive pads to n on read, Spark strips the trailing pad",
			Categories: []Category{TypeViolation, CustomConfig},
			Signatures: []string{"char-padding"},
			FixConf:    map[string]string{"spark.sql.readSideCharPadding": "true"},
		},
		{
			Number: 9, JIRA: "SPARK-40525",
			SinceVersion: "spark:3.0.0", VersionNote: "spark-3.0-migration:ansi",
			Module: "spark sql cast evaluation (generic)", InConnector: false,
			Title:      "IEEE spellings ('NaN', 'Infinity') into FLOAT/DOUBLE: SparkSQL rejects under ANSI, DataFrame and Hive accept or null silently",
			Categories: []Category{InconsistentError, CustomConfig},
			Signatures: []string{"insert-float-invalid"},
			FixConf:    map[string]string{"spark.sql.ansi.enabled": "false"},
		},
		{
			Number: 10, JIRA: "SPARK-40624",
			SinceVersion: "spark:3.0.0", VersionNote: "SPARK-28730",
			Module: "spark sql store assignment (generic insert path)", InConnector: false,
			Title:      "INT/BIGINT range violations on insert: SparkSQL throws, DataFrame wraps, Hive nulls",
			Categories: []Category{InconsistentError, CustomConfig},
			Signatures: []string{"insert-int-range"},
			FixConf:    map[string]string{"spark.sql.storeAssignmentPolicy": "legacy"},
		},
		{
			Number: 11, JIRA: "",
			SinceVersion: "spark:3.0.0", VersionNote: "SPARK-28730",
			Module: "spark sql store assignment (generic insert path)", InConnector: false,
			Title:      "Addressed with the same config as #10: TINYINT/SMALLINT range violations split the same way",
			Categories: []Category{InconsistentError, CustomConfig},
			Signatures: []string{"insert-smallint-range"},
			FixConf:    map[string]string{"spark.sql.storeAssignmentPolicy": "legacy"},
		},
		{
			Number: 12, JIRA: "SPARK-40629",
			SinceVersion: "spark:3.0.0", VersionNote: "spark-3.0-migration:ansi",
			Module: "spark sql cast evaluation (generic)", InConnector: false,
			Title:      "Invalid DATE/TIMESTAMP strings: SparkSQL throws, DataFrame and Hive write NULL silently",
			Categories: []Category{InconsistentError, CustomConfig},
			Signatures: []string{"insert-datetime-invalid"},
			FixConf:    map[string]string{"spark.sql.ansi.enabled": "false"},
		},
		{
			Number: 13, JIRA: "",
			SinceVersion: "spark:3.1.0", VersionNote: "SPARK-33480",
			Module: "spark char/varchar length checks (generic)", InConnector: false,
			Title:      "VARCHAR/CHAR length overflow: SparkSQL throws, DataFrame and Hive truncate silently; spark.sql.legacy.charVarcharAsString removes the check",
			Categories: []Category{InconsistentError, CustomConfig},
			Signatures: []string{"insert-charlength"},
			FixConf:    map[string]string{"spark.sql.legacy.charVarcharAsString": "true"},
		},
		{
			Number: 14, JIRA: "SPARK-40637",
			SinceVersion: "hive:3.0.0", VersionNote: "SPARK-40637",
			Module: "hive ORC SerDe (struct reader)", InConnector: true,
			Title:      "A struct whose members are all NULL folds to NULL through Hive's ORC reader but not Spark's",
			Categories: nil,
			Signatures: []string{"struct-null"},
		},
		{
			Number: 15, JIRA: "SPARK-40630",
			Module: "spark dataframe writer (generic coercion)", InConnector: false,
			Title:      "Invalid BOOLEAN input is inserted as NULL with no feedback on the DataFrame and Hive paths (error-handling oracle)",
			Categories: []Category{CustomConfig},
			Signatures: []string{"insert-boolean-invalid"},
			FixConf:    map[string]string{"spark.sql.ansi.enabled": "true"},
		},
	}
}

// BySignature returns the signature → discrepancy index.
func BySignature() map[string]Discrepancy {
	out := make(map[string]Discrepancy)
	for _, d := range Registry() {
		for _, sig := range d.Signatures {
			out[sig] = d
		}
	}
	return out
}

// CategoryCounts tallies category membership over a set of discrepancy
// numbers.
func CategoryCounts(numbers []int) map[Category]int {
	want := make(map[int]bool, len(numbers))
	for _, n := range numbers {
		want[n] = true
	}
	out := make(map[Category]int)
	for _, d := range Registry() {
		if !want[d.Number] {
			continue
		}
		for _, c := range d.Categories {
			out[c]++
		}
	}
	return out
}
