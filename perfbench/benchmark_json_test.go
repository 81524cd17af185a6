package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root, the file that
// defines this benchmark for tools that run it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestBenchmarkFileIsWellFormed(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || bytes.Contains([]byte(p), []byte("..")) {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(b.PerLayer))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[kind+n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[kind+n] = true
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
}

// The program reports exactly what BENCHMARK.json lists.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q: %q in the program", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != bounds[d.Name] {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v bound %g in the program", i, m, d, bounds[d.Name])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}
