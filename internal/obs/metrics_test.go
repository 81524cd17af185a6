package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the `le` semantics: bounds are
// inclusive upper limits, observations above the last bound land in
// +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 1.0000001, 5, 9.99, 10, 11, 1e9} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("exposition did not parse: %v\n%s", err, buf.String())
	}
	want := map[string]float64{
		`lat_ms_bucket{le="1"}`:    2, // 0.5 and exactly 1
		`lat_ms_bucket{le="5"}`:    4, // + 1.0000001 and exactly 5
		`lat_ms_bucket{le="10"}`:   6, // + 9.99 and exactly 10
		`lat_ms_bucket{le="+Inf"}`: 8,
		`lat_ms_count`:             8,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestCountersGaugesLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("cases_total", "oracle", "wr").Add(3)
	r.Counter("cases_total", "oracle", "wr").Inc()
	r.Counter("cases_total", "oracle", "eh").Inc()
	r.Gauge("distinct").Set(15)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got[`cases_total{oracle="wr"}`] != 4 || got[`cases_total{oracle="eh"}`] != 1 {
		t.Errorf("counters = %v", got)
	}
	if got[`distinct`] != 15 {
		t.Errorf("gauge = %v", got[`distinct`])
	}
	// TYPE comments present and ordered.
	text := buf.String()
	if !strings.Contains(text, "# TYPE cases_total counter") || !strings.Contains(text, "# TYPE distinct gauge") {
		t.Errorf("missing TYPE lines:\n%s", text)
	}
	if strings.Index(text, "cases_total") > strings.Index(text, "distinct") {
		t.Errorf("families not sorted:\n%s", text)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", buf.String(), err)
	}
	if err := r.WriteJSON(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry JSON wrote %q, err %v", buf.String(), err)
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "cmd", "crosstest").Add(2)
	r.Histogram("lat_ms", []float64{1, 10}).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("JSON export invalid: %v\n%s", err, buf.String())
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[1]["name"] != "runs_total" || rows[1]["value"].(float64) != 2 {
		t.Errorf("counter row = %v", rows[1])
	}
	hist := rows[0]
	buckets := hist["buckets"].(map[string]any)
	if buckets["10"].(float64) != 1 || buckets["+Inf"].(float64) != 1 || buckets["1"].(float64) != 0 {
		t.Errorf("histogram buckets = %v", buckets)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("ops_total", "kind", "write").Inc()
				r.Histogram("lat_ms", nil, "kind", "write").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", "kind", "write").Value(); got != 1600 {
		t.Errorf("counter = %d", got)
	}
	if got := r.Histogram("lat_ms", nil, "kind", "write").Count(); got != 1600 {
		t.Errorf("histogram count = %d", got)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"novalue",
		"name{unterminated 3",
		`name{k=noquote} 3`,
		"1leadingdigit 3",
		"name notafloat",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted", bad)
		}
	}
}

// A repeat lookup of a series allocates nothing, whatever order its
// labels come in: the per-case metrics of core, serve and cluster make
// one on every case.
func TestRepeatLookupAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cases_total", "b", "x", "a", "y")
	if got := r.Counter("cases_total", "a", "y", "b", "x"); got != c {
		t.Fatal("label order made a second series")
	}
	h := r.Histogram("case_ms", nil, "family", "ss")
	if a := testing.AllocsPerRun(1000, func() { r.Counter("cases_total", "b", "x", "a", "y").Inc() }); a != 0 {
		t.Errorf("repeat Counter lookup allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { r.Histogram("case_ms", nil, "family", "ss").Observe(1) }); a != 0 {
		t.Errorf("repeat Histogram lookup allocates %.1f/op, want 0", a)
	}
	if c.Value() != 1001 || h.Count() != 1001 {
		t.Errorf("counter = %d, histogram count = %d, want 1001 each", c.Value(), h.Count())
	}
}
