package redundancy

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

// setupLegacyDecimalTable creates the SPARK-39158 situation: a
// DataFrame-written decimal table that HiveQL cannot read.
func setupLegacyDecimalTable(t *testing.T, d *core.Deployment) string {
	t.Helper()
	dec, _ := sqlval.ParseDecimal("12.34")
	schema := serde.Schema{Columns: []serde.Column{{Name: "amt", Type: sqlval.DecimalType(10, 2)}}}
	df, err := d.Spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.DecimalVal(sqlval.DecimalType(10, dec.Scale), dec)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.SaveAsTable("amounts", "parquet"); err != nil {
		t.Fatal(err)
	}
	return "amounts"
}

func TestFailoverMasksHiveSerDeFailure(t *testing.T) {
	d := core.NewDeployment()
	table := setupLegacyDecimalTable(t, d)
	// A Hive-first reader fails over to SparkSQL and serves the value.
	res, err := ReadWithFailover(d, table, core.HiveQL, core.SparkSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != core.SparkSQL {
		t.Errorf("served by %s", res.Served)
	}
	if res.MaskedFailures != 1 {
		t.Errorf("masked = %d", res.MaskedFailures)
	}
	if res.Value.Dec().String() != "12.34" {
		t.Errorf("value = %v", res.Value)
	}
	if len(res.Attempts) != 2 || res.Attempts[0].Err == nil {
		t.Errorf("attempts = %v", res.Attempts)
	}
}

func TestFailoverMasksAvroIncompatibleSchema(t *testing.T) {
	// SPARK-39075: the DataFrame reader fails on Avro-widened BYTE; a
	// redundant reader serves through SparkSQL's fallback path.
	d := core.NewDeployment()
	schema := serde.Schema{Columns: []serde.Column{{Name: "B", Type: sqlval.TinyInt}}}
	df, err := d.Spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.IntVal(sqlval.TinyInt, 5)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.SaveAsTable("bytes", "avro"); err != nil {
		t.Fatal(err)
	}
	res, err := ReadWithFailover(d, "bytes", core.DataFrame, core.SparkSQL, core.HiveQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != core.SparkSQL || res.Value.Int() != 5 {
		t.Errorf("res = %+v", res)
	}
}

func TestFailoverAllFail(t *testing.T) {
	d := core.NewDeployment()
	_, err := ReadWithFailover(d, "missing_table")
	if !errors.Is(err, ErrAllInterfacesFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestVotingSurfacesCharPaddingDisagreement(t *testing.T) {
	// SPARK-40616: Hive pads CHAR on read, Spark strips. Voting serves
	// the 2-1 majority and reports the minority deviation.
	d := core.NewDeployment()
	if _, err := d.Spark.SQL(`CREATE TABLE tags (c CHAR(4)) STORED AS ORC`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Spark.SQL(`INSERT INTO tags VALUES ('ab')`); err != nil {
		t.Fatal(err)
	}
	res, err := ReadWithVoting(d, "tags")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Str() != "ab" {
		t.Errorf("majority value = %q", res.Value.Str())
	}
	if res.MaskedFailures != 1 || len(res.Disagreements) != 1 {
		t.Errorf("disagreements = %v", res.Disagreements)
	}
	if !strings.Contains(res.Disagreements[0], "hiveql") {
		t.Errorf("disagreement = %q", res.Disagreements[0])
	}
}

func TestVotingUnanimous(t *testing.T) {
	d := core.NewDeployment()
	if _, err := d.Spark.SQL(`CREATE TABLE nums (n INT) STORED AS PARQUET`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Spark.SQL(`INSERT INTO nums VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	res, err := ReadWithVoting(d, "nums")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Int() != 7 || res.MaskedFailures != 0 || len(res.Disagreements) != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestVotingCountsErrorsAsDisagreements(t *testing.T) {
	d := core.NewDeployment()
	table := setupLegacyDecimalTable(t, d)
	res, err := ReadWithVoting(d, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaskedFailures != 1 {
		t.Errorf("masked = %d (%v)", res.MaskedFailures, res.Disagreements)
	}
	if res.Value.Dec().String() != "12.34" {
		t.Errorf("value = %v", res.Value)
	}
}

func TestVotingAllFail(t *testing.T) {
	d := core.NewDeployment()
	if _, err := ReadWithVoting(d, "missing"); !errors.Is(err, ErrAllInterfacesFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestMeasureFailoverCoverage(t *testing.T) {
	inputs, err := core.BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	// DataFrame-written Avro tables, read DataFrame-first: the
	// SPARK-39075 class fails on the primary and is served by failover.
	report, err := MeasureFailoverCoverage(inputs, core.DataFrame, core.DataFrame, "avro")
	if err != nil {
		t.Fatal(err)
	}
	if report.PrimaryFailures == 0 {
		t.Fatal("expected primary-interface failures on the avro corpus")
	}
	if report.ServedByFailover != report.PrimaryFailures {
		t.Errorf("failover served %d of %d primary failures; still failing %d",
			report.ServedByFailover, report.PrimaryFailures, report.StillFailing)
	}
	if !strings.Contains(report.String(), "served-by-failover") {
		t.Errorf("render = %q", report)
	}
}
