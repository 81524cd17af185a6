package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload runs one sample (a window shorter than one operation),
// checks its outputs, and reports every end-to-end metric as a finite,
// nonzero number in the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(&config{seed: 42, seconds: 0.001})
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() || r.failed != 0 || r.attempted < 1 {
				t.Fatalf("correct=%t attempted=%d failed=%d: %v", r.correct(), r.attempted, r.failed, r.problems)
			}
			line := resultLineOf(t, r, false)
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || v.Value == 0 || math.IsNaN(v.Value) {
					t.Errorf("%s = %+v, present %t", d.Name, v, ok)
				}
			}
		})
	}
}

// A traced run reports every per-layer metric and writes its spans and
// summary; the fuzz workload is the cheapest to trace.
func TestSmokeTracedFuzz(t *testing.T) {
	spans := newSpanLog()
	r, err := runFuzz(&config{seed: 5, seconds: 0.001, trace: true, spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	line := resultLineOf(t, r, true)
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"core.case_us", "sparksim.sql_self_us", "hdfssim.list_us", "sqlparse.parse_us", "serde.avro.decode_us", "obs.shipped_overhead_x"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want a measured time", name, line.Metrics[name].Value)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	n, err := writeTraced(path, spans, []*result{r})
	if err != nil || n == 0 {
		t.Fatalf("wrote %d spans: %v", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != n+1 {
		t.Fatalf("%d lines for %d spans and one summary", len(lines), n)
	}
	var span spanLine
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil || span.Workload != "fuzz" || span.EndNs < span.StartNs {
		t.Errorf("first span line %s: %+v, %v", lines[0], span, err)
	}
	var summary struct {
		Summary string             `json:"summary"`
		Layers  map[string]float64 `json:"layers"`
	}
	if err := json.Unmarshal([]byte(lines[n]), &summary); err != nil || summary.Summary != "fuzz" {
		t.Fatalf("summary line %s: %v", lines[n], err)
	}
	for _, d := range perLayer {
		if _, ok := summary.Layers[d.Name]; !ok {
			t.Errorf("summary lacks %s", d.Name)
		}
	}
}

type resultLineJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func resultLineOf(t *testing.T, r *result, traced bool) resultLineJSON {
	t.Helper()
	if _, err := report(r, traced); err != nil {
		t.Fatal(err)
	}
	text, err := resultLine(r, traced)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(text), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var line resultLineJSON
	if err := json.Unmarshal([]byte(text), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct != r.correct() || line.Attempted != r.attempted || line.Failed != r.failed {
		t.Errorf("result line %s disagrees with the run", text)
	}
	return line
}
