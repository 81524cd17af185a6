// Command csireplay replays the paper's concrete CSI failures on the
// simulators — the three §2.3 examples (Figures 1–3), the SPARK-27239
// fix (Figure 4), the FLINK-12342 fix ladder (Figure 5), and the §6
// case examples — each in its buggy and fixed form.
//
// Usage:
//
//	csireplay [-trace dir] [-metrics file] [scenario]
//
// Scenarios: storm, filesize, scheduler, pmem, token, safemode,
// offsets, quota, redundancy.
// With no argument, every scenario is replayed.
//
// The three §2.3 scenarios print the cross-system propagation chain
// reconstructed from their span trees. -trace writes each traced
// scenario's spans to <dir>/<scenario>.jsonl; -metrics writes
// scenario run counters in Prometheus text format ("-" for stdout).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/flinksim"
	"repro/internal/hbasesim"
	"repro/internal/obs"
	"repro/internal/quotasim"
	"repro/internal/redundancy"
	"repro/internal/replay"
	"repro/internal/serde"
	"repro/internal/sqlval"
	"repro/internal/yarnsim"
)

func main() {
	cli.Observe()
	cli.Parse("csireplay")
	// Each traced scenario writes its own <dir>/<scenario>.jsonl, so
	// there is no run-wide tracer and no spans.jsonl.
	cli.Tracer = nil
	defer cli.Flush()
	which := flag.Arg(0)
	scenarios := []struct {
		name string
		run  func()
	}{
		{"storm", storm},
		{"filesize", filesize},
		{"scheduler", scheduler},
		{"pmem", pmem},
		{"token", token},
		{"safemode", safemode},
		{"offsets", offsets},
		{"quota", quota},
		{"redundancy", redundancyDemo},
	}
	ran := false
	for _, s := range scenarios {
		if which == "" || which == s.name {
			s.run()
			cli.Metrics.Counter("csireplay_scenario_runs_total", "scenario", s.name).Inc()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "csireplay: unknown scenario %q\n", which)
		os.Exit(2)
	}
}

// propagation prints the §2.3 scenario's cross-system chain and, with
// -trace, writes the span tree to <dir>/<name>.jsonl.
func propagation(name string) {
	tr, err := replay.Scenario23Trace(name)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("  propagation: %s\n", obs.RenderChain(tr.Chain(nil)))
	cli.Metrics.Counter("csireplay_spans_total", "scenario", name).Add(int64(tr.Len()))
	if cli.TraceDir == "" {
		return
	}
	if _, err := tr.WriteSpansFile(cli.TraceDir, name+".jsonl"); err != nil {
		cli.Fatal(err)
	}
}

func storm() {
	fmt.Println("=== FLINK-12342 (Figures 1 and 5): container-request storm ===")
	fmt.Println("Flink requests C containers every 500ms; YARN needs longer to allocate.")
	for _, r := range replay.FixLadder() {
		fmt.Println("  " + r.String())
	}
	propagation("storm")
}

func filesize() {
	fmt.Println("=== SPARK-27239 (Figures 2 and 4): compressed file size -1 ===")
	if _, err := replay.CompressedFileRead(true, false); err != nil {
		fmt.Printf("  buggy check, compressed file: %v\n", err)
	}
	if data, err := replay.CompressedFileRead(true, true); err == nil {
		fmt.Printf("  fixed check (length >= -1):   read %d bytes\n", len(data))
	}
	propagation("filesize")
}

func scheduler() {
	fmt.Println("=== FLINK-19141 (Figure 3): inconsistent scheduler configurations ===")
	tuned := map[string]string{yarnsim.KeyMinAllocMB: "128"}
	if err := replay.SchedulerMismatch("capacity", tuned); err == nil {
		fmt.Println("  capacity scheduler + tuned minimum-allocation-mb: allocation OK")
	}
	if err := replay.SchedulerMismatch("fair", tuned); err != nil {
		fmt.Printf("  fair scheduler + same keys: %v\n", err)
	}
	if err := replay.SchedulerMismatch("fair", map[string]string{yarnsim.KeyIncAllocMB: "128"}); err == nil {
		fmt.Println("  fair scheduler + increment-allocation keys: allocation OK")
	}
	propagation("scheduler")
}

func pmem() {
	fmt.Println("=== FLINK-887: JobManager vs YARN pmem monitor ===")
	if killed, reason := replay.PmemKill(flinksim.SizingNoHeadroom); killed {
		fmt.Printf("  no-headroom JVM sizing: %s\n", reason)
	}
	if killed, _ := replay.PmemKill(flinksim.SizingWithCutoff); !killed {
		fmt.Println("  cutoff JVM sizing: survives the monitor")
	}
}

func token() {
	fmt.Println("=== YARN-2790: delegation-token renewal vs consumption ===")
	if err := replay.TokenExpiry(true); err != nil {
		fmt.Printf("  renewal at submission: %v\n", err)
	}
	if err := replay.TokenExpiry(false); err == nil {
		fmt.Println("  renewal adjacent to the read: OK")
	}
}

func safemode() {
	fmt.Println("=== HBASE-537: HBase vs NameNode safe mode ===")
	if ok, err := replay.SafeModeStartup(hbasesim.StartupAssumeReady, 3000); !ok {
		fmt.Printf("  assume-ready startup: %v\n", err)
	}
	if ok, _ := replay.SafeModeStartup(hbasesim.StartupWaitForNameNode, 3000); ok {
		fmt.Println("  wait-for-NameNode startup: first write OK")
	}
}

func offsets() {
	fmt.Println("=== SPARK-19361 pattern: Kafka offset contiguity assumption ===")
	if n, err := replay.OffsetGap(true); err != nil {
		fmt.Printf("  contiguity assumed: job failed after %d records: %v\n", n, err)
	}
	if n, err := replay.OffsetGap(false); err == nil {
		fmt.Printf("  gap-tolerant consumer: read %d surviving records\n", n)
	}
}

func quota() {
	fmt.Println("=== GCP User-ID incident (§1): monitoring x quota interaction ===")
	fmt.Println("A deregistered monitor reports usage 0; the quota system reads")
	fmt.Println("zero as the expected load and shrinks the service's quota.")
	fmt.Println("  " + quotasim.RunIncident(quotasim.PolicyTrustReports, false).String())
	fmt.Println("  " + quotasim.RunIncident(quotasim.PolicyGracePeriod, false).String())
	fmt.Println("  " + quotasim.RunIncident(quotasim.PolicyIgnoreUnregistered, false).String())
	fmt.Println("  " + quotasim.RunIncident(quotasim.PolicyTrustReports, true).String())
	fmt.Println("  (policies: 0=trust reports/buggy, 1=grace period, 2=ignore unregistered;")
	fmt.Println("   fixedProtocol=true: a deregistered monitor stops reporting)")
}

func redundancyDemo() {
	fmt.Println("=== Interaction redundancy (§5.2 / §10 direction) ===")
	d := core.NewDeployment()
	dec, _ := sqlval.ParseDecimal("12.34")
	schema := serde.Schema{Columns: []serde.Column{{Name: "amt", Type: sqlval.DecimalType(10, 2)}}}
	df, err := d.Spark.CreateDataFrame(schema, []sqlval.Row{{sqlval.DecimalVal(sqlval.DecimalType(10, dec.Scale), dec)}})
	if err != nil {
		cli.Fatal(err)
	}
	if err := df.SaveAsTable("amounts", "parquet"); err != nil {
		cli.Fatal(err)
	}
	fmt.Println("A DataFrame-written decimal table (legacy binary encoding, SPARK-39158):")
	res, err := redundancy.ReadWithFailover(d, "amounts", core.HiveQL, core.SparkSQL)
	if err != nil {
		cli.Fatal(err)
	}
	for _, a := range res.Attempts {
		fmt.Printf("  %s\n", a)
	}
	fmt.Printf("  served by %s after masking %d interface failure(s)\n", res.Served, res.MaskedFailures)
}
