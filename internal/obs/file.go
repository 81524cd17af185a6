package obs

import (
	"io"
	"os"
	"path/filepath"
)

// WriteSpansFile writes the trace as JSON lines to dir/name, creating
// dir first, and returns the file's path: the -trace output of every
// CLI.
func (t *Tracer) WriteSpansFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, writeFile(path, t.WriteSpans)
}

// WritePrometheusFile writes the registry in the Prometheus text format
// to dest, or to stdout when dest is "-": the -metrics output of every
// CLI.
func (r *Registry) WritePrometheusFile(dest string) error {
	if dest == "-" {
		return r.WritePrometheus(os.Stdout)
	}
	return writeFile(dest, r.WritePrometheus)
}

// writeFile creates path and fills it with write. The Close error is
// returned too: it is where a short write on a full disk shows up.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
