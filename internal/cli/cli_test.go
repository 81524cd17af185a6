package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/csi"
	"repro/internal/obs"
)

// reset clears what the -trace and -metrics flags set, so the test
// can run more than once in one process (go test -count=N).
func reset() {
	TraceDir, metricsFile, Tracer, Metrics = "", "", nil, nil
}

// The -trace and -metrics flags create their tracer and registry only
// when given, and Flush writes the trace to <dir>/spans.jsonl and the
// registry to the -metrics file.
func TestObserveAndFlush(t *testing.T) {
	if flag.Lookup("trace") == nil {
		Observe()
	}
	reset()
	t.Cleanup(reset)
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "trace")
	metricsPath := filepath.Join(dir, "metrics.prom")
	if err := flag.Set("trace", traceDir); err != nil {
		t.Fatal(err)
	}
	if err := flag.Set("metrics", metricsPath); err != nil {
		t.Fatal(err)
	}
	if Tracer == nil || Metrics == nil || TraceDir != traceDir {
		t.Fatalf("flags set, but Tracer=%v Metrics=%v TraceDir=%q", Tracer, Metrics, TraceDir)
	}

	// An empty trace still writes its (empty) file, as does the registry.
	Flush()
	if fi, err := os.Stat(filepath.Join(traceDir, "spans.jsonl")); err != nil || fi.Size() != 0 {
		t.Errorf("empty trace: spans.jsonl stat = %v, %v; want an empty file", fi, err)
	}
	if _, err := os.Stat(metricsPath); err != nil {
		t.Errorf("metrics file not written: %v", err)
	}

	Tracer.Span(nil, csi.Spark, csi.DataPlane, "case").End()
	Metrics.Counter("cli_test_total").Inc()
	Flush()
	spans, err := os.ReadFile(filepath.Join(traceDir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(spans, []byte("\n")); n != 1 {
		t.Errorf("spans.jsonl has %d lines, want 1", n)
	}
	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := obs.ParsePrometheus(f)
	if err != nil {
		t.Fatal(err)
	}
	if got["cli_test_total"] != 1 {
		t.Errorf("metrics file = %v, want cli_test_total 1", got)
	}
}
