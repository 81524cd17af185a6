// Package integration_test builds the repository's command binaries and
// runs them end to end, asserting the headline outputs: the study tool
// reproduces every finding, the cross-test reports all 15 discrepancies,
// and the replay tool exhibits each failure and fix.
package integration_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "csi-bin")
	if err != nil {
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
	build.Dir = repoRoot()
	if out, err := build.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd)) // internal/integration -> repo root
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCsistudyEndToEnd(t *testing.T) {
	out := run(t, "csistudy")
	for _, want := range []string{
		"Table 1", "Table 9",
		"All quantitative findings reproduce the published statistics.",
		"CSI-failure-induced incidents: 11 (20%), median duration 106 minutes",
		"Control-plane share of CBS CSI failures: 69%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csistudy output missing %q", want)
		}
	}
}

func TestCsistudyDatasetListing(t *testing.T) {
	out := run(t, "csistudy", "-dataset")
	for _, want := range []string{"FLINK-12342", "SPARK-27239", "[synthesized]", "120 records"} {
		if !strings.Contains(out, want) {
			t.Errorf("dataset listing missing %q", want)
		}
	}
}

func TestCrosstestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run")
	}
	out := run(t, "crosstest", "-parallel", "8")
	if !strings.Contains(out, "Distinct discrepancies: 15") {
		t.Error("crosstest did not report 15 distinct discrepancies")
	}
	for _, want := range []string{
		"SPARK-39075", "SPARK-40630",
		"cannot-read-what-was-written         2/2",
		"relying-on-custom-configurations     8/8",
		"Module locality",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("crosstest output missing %q", want)
		}
	}
	if strings.Contains(out, "Unmapped signatures") {
		t.Error("crosstest reported unmapped signatures on the default corpus")
	}
}

func TestCrosstestDeploymentConfig(t *testing.T) {
	out := run(t, "crosstest",
		"-inputs", "ts_noon",
		"-conf", "spark.sql.session.timeZone=UTC")
	if !strings.Contains(out, "Distinct discrepancies: 0") {
		t.Errorf("UTC deployment should resolve the timestamp discrepancy:\n%s", out)
	}
}

func TestCrosstestExtensionModes(t *testing.T) {
	out := run(t, "crosstest", "-inputs", "char_short", "-wide", "-partitions")
	if !strings.Contains(out, "Partitioned-table mode") ||
		!strings.Contains(out, "partition-path-escaping") {
		t.Errorf("partition mode missing:\n%s", out)
	}
	if !strings.Contains(out, "Wide-table mode") {
		t.Error("wide mode missing")
	}
}

// crosstest -sweep runs under the same options as the report above it:
// its default row restricted by -family counts exactly the report's
// oracle failures, not those of every plan family.
func TestCrosstestSweepHonorsFamily(t *testing.T) {
	out := run(t, "crosstest", "-inputs", "char", "-family", "hs", "-sweep")
	var wr, eh, difft, distinct, failures int
	var report, row bool
	for _, line := range strings.Split(out, "\n") {
		if _, err := fmt.Sscanf(line, "Oracle failures: wr=%d eh=%d difft=%d", &wr, &eh, &difft); err == nil {
			report = true
		}
		if _, err := fmt.Sscanf(line, "default %d %d", &distinct, &failures); err == nil {
			row = true
		}
	}
	if !report || !row {
		t.Fatalf("no report totals or no default sweep row:\n%s", out)
	}
	if failures != wr+eh+difft {
		t.Errorf("sweep default row counts %d failures, the report above it %d:\n%s", failures, wr+eh+difft, out)
	}
}

func TestCsireplayEndToEnd(t *testing.T) {
	out := run(t, "csireplay")
	for _, want := range []string{
		"FLINK-12342", "buggy-sync-assumption", "resolution3-nmclient-async",
		"SPARK-27239", "length (-1) cannot be negative",
		"FLINK-19141", "could not allocate",
		"FLINK-887", "beyond physical memory limits",
		"YARN-2790", "delegation token expired",
		"HBASE-537", "safe mode",
		"SPARK-19361", "not contiguous",
		"User-ID", "OUTAGE",
		"Interaction redundancy", "served by sparksql",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csireplay output missing %q", want)
		}
	}
}

func TestCsireplayUnknownScenario(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "csireplay"), "nope")
	if err := cmd.Run(); err == nil {
		t.Error("unknown scenario should exit nonzero")
	}
}

// The CLIs reject the options crossd rejects at admission, exiting 1
// with an error that names the bad value instead of running nothing or
// running something else.
func TestCLIsRejectWhatCrossdRejects(t *testing.T) {
	for _, tc := range []struct {
		bin  string
		args []string
		want string
	}{
		{"crosstest", []string{"-family", "bogus"}, `unknown plan family "bogus"`},
		{"crosstest", []string{"-inputs", "nomatch"}, `input prefix "nomatch" matches no corpus input`},
		{"crossfuzz", []string{"-confs", "-1"}, "Confs must be non-negative, got -1"},
		{"crosspart", []string{"-trials", "-3"}, "Trials must be non-negative, got -3"},
		{"crosspart", []string{"-parallel", "-1", "-scenarios", "kafka-isr"}, "Parallel must be non-negative, got -1"},
		{"crossload", []string{"-parallel", "-1", "-peak", "350", "-policy", "naive"}, "Parallel must be non-negative, got -1"},
	} {
		out, err := exec.Command(filepath.Join(binDir, tc.bin), tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s %v: err %v, want exit status 1\n%s", tc.bin, tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %v: output %q, want it to contain %q", tc.bin, tc.args, out, tc.want)
		}
	}
}
