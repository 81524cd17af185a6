package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/csi"
)

// The CLI writers create the trace directory, write exactly the bytes
// of the stream writers, and report a destination they cannot create.
func TestFileWriters(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Span(nil, csi.Spark, csi.DataPlane, "write")
	tr.Span(root, csi.HDFS, csi.DataPlane, "put").End()
	root.End()
	reg := NewRegistry()
	reg.Counter("writes_total", "system", "hdfs").Add(3)

	dir := filepath.Join(t.TempDir(), "nested", "trace")
	path, err := tr.WriteSpansFile(dir, "spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "spans.jsonl") {
		t.Errorf("path = %s", path)
	}
	var want bytes.Buffer
	if err := tr.WriteSpans(&want); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("spans file:\n%s\nwant:\n%s", got, want.Bytes())
	}

	dest := filepath.Join(dir, "metrics.prom")
	if err := reg.WritePrometheusFile(dest); err != nil {
		t.Fatal(err)
	}
	want.Reset()
	if err := reg.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(dest); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("metrics file:\n%s\nwant:\n%s", got, want.Bytes())
	}

	// A regular file where the directory should be is a named error,
	// not a silent no-op.
	if _, err := tr.WriteSpansFile(dest, "spans.jsonl"); err == nil {
		t.Error("trace dir that is a regular file: no error")
	}
	if err := reg.WritePrometheusFile(filepath.Join(dest, "x.prom")); err == nil {
		t.Error("metrics under a regular file: no error")
	}
}
