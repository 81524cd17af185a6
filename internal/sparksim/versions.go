package sparksim

import (
	"fmt"

	"repro/internal/versions"
)

// Version profiles. The paper's §8.1 methodology deploys two Spark
// versions — 2.3.0 for the Spark↔Hive test plans (the last version
// supporting an external Hive instance) and 3.2.1 for Spark-to-Spark —
// and §5.3 observes that cross-version configuration defaults are
// themselves a CSI hazard: the same deployment behaves differently
// because the versions ship different defaults. The profiles live in
// internal/versions, keyed to the JIRA issues and migration-guide notes
// that changed each behavior; this file binds them to a session.
const (
	// Version23 approximates Spark 2.3.0 defaults: legacy store
	// assignment and casts (silent coercion), hybrid-calendar
	// datetimes, the legacy decimal writer, and no built-in Avro data
	// source (SPARK-24768).
	Version23 = versions.Spark23
	// Version24 approximates Spark 2.4.8: the 2.3 semantics plus the
	// built-in Avro data source added by SPARK-24768.
	Version24 = versions.Spark24
	// Version32 approximates Spark 3.2.1 defaults: ANSI store
	// assignment, proleptic Gregorian datetimes. This is the
	// simulator's default profile.
	Version32 = versions.Spark32
)

// confVersion is the conf key the applied profile is recorded under.
const confVersion = "spark.version"

// Versions lists the supported version profiles.
func Versions() []string { return versions.SparkVersions() }

// ApplyVersionProfile resets the configuration keys a release ships
// different defaults for. Explicit Set calls afterwards still override,
// exactly as deployment configuration overrides shipped defaults.
func (s *Session) ApplyVersionProfile(version string) error {
	profile, ok := versions.GetSparkProfile(version)
	if !ok {
		return fmt.Errorf("spark: unknown version %q (have %v)", version, Versions())
	}
	for k, v := range profile.Conf {
		s.conf.Set(k, v)
	}
	s.conf.Set(confVersion, version)
	return nil
}

// Version returns the session's version profile name (empty when no
// profile was applied).
func (s *Session) Version() string { return s.conf.Get(confVersion) }

// VersionConf returns a copy of a version profile's configuration
// defaults, suitable for applying as deployment configuration (e.g. to
// a cross-test run). Unknown versions return nil.
//
//crossvet:unused-export BenchmarkVersionMatrix (root bench_test.go) applies each version's defaults through it
func VersionConf(version string) map[string]string {
	profile, ok := versions.GetSparkProfile(version)
	if !ok {
		return nil
	}
	out := make(map[string]string, len(profile.Conf))
	for k, v := range profile.Conf {
		out[k] = v
	}
	return out
}

// AvroUnavailableError is the failure of every Avro read or write on a
// Spark build without the built-in Avro data source — the data source
// became built in with Spark 2.4 (SPARK-24768); before that it was an
// external package the modeled deployment does not ship.
type AvroUnavailableError struct {
	Version string
}

// Error implements the error interface, mirroring Spark's
// AnalysisException message for a missing data source.
func (e *AvroUnavailableError) Error() string {
	return fmt.Sprintf("spark: AnalysisException: failed to find data source: avro "+
		"(built in since Spark 2.4, SPARK-24768; spark.version=%s)", e.Version)
}

// checkAvro gates Avro operations on the session's version profile: a
// pre-2.4 profile has no Avro data source at all. Sessions without a
// profile run the baseline (Avro available).
func (s *Session) checkAvro(format string) error {
	if format != "avro" {
		return nil
	}
	v := s.Version()
	if v == "" {
		return nil
	}
	if p, ok := versions.GetSparkProfile(v); ok && !p.BuiltinAvro {
		return &AvroUnavailableError{Version: v}
	}
	return nil
}
