// Command perfbench is the repository's benchmark. It runs five
// workloads over the cross-system testing framework, prints every
// end-to-end metric with its unit, median, quartiles and sample count,
// checks every output for correctness, and in a traced run fills a
// per-layer ledger. BENCHMARK.json at the repository root defines the
// workloads and metrics; README.md in this directory explains them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh [--workload NAME] [--seed 42] [--seconds 15]
//	                      [--trace 0|1] [-traced spans.jsonl] [-o record.json]
//
// Without --workload all five workloads run. With one workload the last
// line of standard output is a JSON object with keys correct,
// attempted, failed and metrics: the end-to-end metrics, or with
// --trace 1 the per-layer ones. The exit code is 1 when an output is
// wrong and 2 when a run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/benchrec"
)

// workload is one named traffic shape and why the benchmark runs it.
type workload struct {
	name string
	why  string
	run  func(*config) (*result, error)
}

var workloads = []workload{
	{"corpus", "Figure-6 run at full size: 422 inputs, 10,128 tables in one warehouse; the parser, engine, serde, warehouse and report layers do most of their work here", runCorpus},
	{"skew", "base corpus over five writer->reader version pairs: 5 deployments per sample and 2 writes, 3 reads per case; the slowest per-case path", runSkew},
	{"fuzz", "fuzz campaigns: multi-column tables in six configuration batches of hundreds of tables and the shrinker; small warehouses, so the big-warehouse cost is bypassed", runFuzz},
	{"crossd", "open-loop job mix at 3 jobs/s against crossd as shipped (tracing on): fresh fuzz, corpus and partition jobs plus repeats served from cache or coalesced", runCrossd},
	{"cluster", "one client against a coordinator over two workers on loopback: split, remote call, merge and the wire, exercised nowhere else", runCluster},
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all)")
	seed := flag.Uint64("seed", 42, "workload seed: every input derives from it")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: run the traced phase and report per-layer metrics")
	traced := flag.String("traced", "", "write the traced run's spans and per-layer summary to this JSON-lines file (implies -trace 1)")
	out := flag.String("o", "", "record the reported metrics, named <workload>.<metric>, to this benchrec file")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fail("bad -trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		fail("bad -seconds %g", *seconds)
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1 || *traced != ""}
	if *traced != "" {
		cfg.spans = newSpanLog()
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fail("unknown workload %q", *name)
	}

	rec := &benchrec.Record{Schema: benchrec.Schema, CreatedAt: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version()}
	correct := true
	var results []*result
	for _, w := range selected {
		fmt.Printf("== %s: %s\n", w.name, w.why)
		r, err := w.run(cfg)
		if err != nil {
			fail("%s: %v", w.name, err)
		}
		results = append(results, r)
		ms, err := report(r, cfg.trace)
		if err != nil {
			fail("%s: %v", w.name, err)
		}
		for _, m := range ms {
			m.Name = w.name + "." + m.Name
			rec.Metrics = append(rec.Metrics, m)
		}
		correct = correct && r.correct()
	}

	if *traced != "" {
		n, err := writeTraced(*traced, cfg.spans, results)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %d spans and the per-layer summary to %s\n", n, *traced)
	}
	if *out != "" {
		if err := rec.Write(*out); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if len(results) == 1 {
		line, err := resultLine(results[0], cfg.trace)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(line)
	} else {
		fmt.Printf("perfbench: %d workloads, all outputs correct: %t\n", len(results), correct)
	}
	if !correct {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// report prints a workload's outcome and returns the metrics it
// printed: the end-to-end ones and further observations, or in a traced
// run the per-layer ones.
func report(r *result, traced bool) ([]benchrec.Metric, error) {
	fmt.Printf("correct=%t attempted=%d failed=%d\n", r.correct(), r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  WRONG: %s\n", p)
	}
	if r.invalid != "" {
		fmt.Printf("  INVALID MEASUREMENT: %s\n", r.invalid)
	}
	if traced {
		// A traced run's own timings carry the replays and the kept spans;
		// end-to-end numbers come from untraced runs only.
		return layerReport(r), nil
	}
	var out []benchrec.Metric
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], timings...) {
		s := summarize(r.e2e[d.Name])
		if s.N == 0 {
			return nil, fmt.Errorf("no %s observation", d.Name)
		}
		bound := "no bound"
		if b, ok := bounds[d.Name]; ok {
			bound = fmt.Sprintf("bound %2.0f%%", b*100)
		}
		fmt.Printf("  %-18s %14.6g %-8s p25 %-12.6g p75 %-12.6g n=%-4d %s\n",
			d.Name, s.Median, d.Unit, s.P25, s.P75, s.N, bound)
		out = append(out, benchrec.Metric{Name: d.Name, Unit: d.Unit, Value: s.Median, Better: d.Better})
	}
	return append(out, extraMetrics(r)...), nil
}

// layerReport prints a traced run's per-layer values and returns them.
func layerReport(r *result) []benchrec.Metric {
	var names []string
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	for _, d := range detailLayer {
		if _, ok := r.layers[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	fmt.Println("  per-layer (traced run):")
	var out []benchrec.Metric
	for _, n := range names {
		d := metricByName[n]
		fmt.Printf("    %-32s %14.6g %s\n", n, r.layers[n], d.Unit)
		out = append(out, benchrec.Metric{Name: n, Unit: d.Unit, Value: r.layers[n], Better: d.Better})
	}
	return out
}

// extraMetrics prints and returns the observations outside
// BENCHMARK.json: the latency tail, first-event latency, SLO misses,
// failures and generator lag.
func extraMetrics(r *result) []benchrec.Metric {
	var out []benchrec.Metric
	add := func(name, unit, better string, xs []float64, value float64) {
		s := summarize(xs)
		fmt.Printf("  %-18s %14.6g %-8s p25 %-12.6g p75 %-12.6g n=%d\n", name, value, unit, s.P25, s.P75, s.N)
		out = append(out, benchrec.Metric{Name: name, Unit: unit, Value: value, Better: better})
	}
	lat := append([]float64(nil), r.e2e["op_p50_ms"]...)
	sort.Float64s(lat)
	if p, ok := tailPercentile(len(lat)); ok {
		add(fmt.Sprintf("op_p%.0f_ms", p), "ms", lower, lat, percentile(lat, p))
	}
	if xs := r.extra["first_event_ms"]; len(xs) > 0 {
		add("first_event_p50_ms", "ms", lower, xs, median(xs))
	}
	if xs := r.extra["slo_miss_frac"]; len(xs) > 0 {
		add("slo_miss_frac", "fraction", lower, xs, xs[0])
	}
	add("failed_frac", "fraction", lower, nil, ratio(float64(r.failed), float64(r.attempted)))
	if xs := r.extra["send_lag_ms"]; len(xs) > 0 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		add("send_lag_p99_ms", "ms", lower, xs, percentile(s, 99))
	}
	return out
}

// resultLine is the machine-readable last line of a one-workload run.
func resultLine(r *result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{r.layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{median(r.e2e[d.Name]), d.Unit}
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite", name)
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	return string(data), err
}

// writeTraced writes the span file: every kept span, then one summary
// line per workload with its per-layer values.
func writeTraced(path string, spans *spanLog, results []*result) (int, error) {
	n, err := spans.write(path)
	if err != nil {
		return n, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return n, err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		line := struct {
			Summary string             `json:"summary"`
			Layers  map[string]float64 `json:"layers"`
		}{r.workload, map[string]float64{}}
		for _, d := range perLayer {
			line.Layers[d.Name] = r.layers[d.Name]
		}
		for _, d := range detailLayer {
			if v, ok := r.layers[d.Name]; ok {
				line.Layers[d.Name] = v
			}
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return n, err
		}
	}
	return n, f.Close()
}
