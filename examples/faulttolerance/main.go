// Fault-tolerance example: the two CSI-specific reliability directions
// the paper proposes, running live.
//
// First, the §1 GCP incident — a monitoring × quota interaction — under
// the buggy policy, the emergency mitigation, and the two fixes.
// Second, §5.2/§10 interaction redundancy: cross-system interactions
// are single points of failure despite redundant components and data,
// so a redundant reader that can fall back to (or vote across) sibling
// interfaces masks CSI failures that would otherwise take the consumer
// down.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/quotasim"
	"repro/internal/redundancy"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

func main() {
	fmt.Println("Part 1 — the GCP User-ID incident (§1)")
	fmt.Println("A deregistered monitor reports usage 0; the quota system treats")
	fmt.Println("zero as expected load and shrinks the quota under the service.")
	fmt.Println()
	scenarios := []struct {
		label         string
		policy        quotasim.QuotaPolicy
		fixedProtocol bool
	}{
		{"buggy: trust every report", quotasim.PolicyTrustReports, false},
		{"mitigation: grace period before enforcement", quotasim.PolicyGracePeriod, false},
		{"consumer fix: ignore unregistered monitors", quotasim.PolicyIgnoreUnregistered, false},
		{"producer fix: deregistered monitors stop reporting", quotasim.PolicyTrustReports, true},
	}
	for _, sc := range scenarios {
		r := quotasim.RunIncident(sc.policy, sc.fixedProtocol)
		outcome := "no outage"
		if r.OutageStartMs >= 0 {
			outcome = fmt.Sprintf("OUTAGE for %d min, quota collapsed to %.0f", r.OutageMinutes, r.LowestQuota)
		}
		fmt.Printf("  %-52s %s\n", sc.label, outcome)
	}

	fmt.Println()
	fmt.Println("Part 2 — interaction redundancy (§5.2 / §10)")
	d := core.NewDeployment()
	dec, _ := sqlval.ParseDecimal("12.34")
	schema := serde.Schema{Columns: []serde.Column{{Name: "amt", Type: sqlval.DecimalType(10, 2)}}}
	df, err := d.Spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.DecimalVal(sqlval.DecimalType(10, dec.Scale), dec)}})
	if err != nil {
		log.Fatal(err)
	}
	if err := df.SaveAsTable("amounts", "parquet"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("A DataFrame-written decimal table carries Spark's legacy binary")
	fmt.Println("encoding (SPARK-39158); a Hive-first consumer fails — unless it")
	fmt.Println("can fail over to a sibling interface:")
	res, err := redundancy.ReadWithFailover(d, "amounts", core.HiveQL, core.SparkSQL, core.DataFrame)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range res.Attempts {
		fmt.Printf("  %s\n", a)
	}
	fmt.Printf("  -> served by %s, %d interface failure(s) masked\n\n", res.Served, res.MaskedFailures)

	fmt.Println("Voting turns a silent discrepancy into an observable signal:")
	if _, err := d.Spark.SQL(`CREATE TABLE tags (c CHAR(4)) STORED AS ORC`); err != nil {
		log.Fatal(err)
	}
	if _, err := d.Spark.SQL(`INSERT INTO tags VALUES ('ab')`); err != nil {
		log.Fatal(err)
	}
	vres, err := redundancy.ReadWithVoting(d, "tags")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  majority value: %s (served by %s)\n", vres.Value, vres.Served)
	for _, dis := range vres.Disagreements {
		fmt.Printf("  disagreement:   %s\n", dis)
	}

	fmt.Println()
	fmt.Println("Coverage on the DataFrame-Avro workload (SPARK-39075 class):")
	inputs, err := core.BuildBaseCorpus()
	if err != nil {
		log.Fatal(err)
	}
	report, err := redundancy.MeasureFailoverCoverage(inputs, core.DataFrame, core.DataFrame, "avro")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", report)
}
