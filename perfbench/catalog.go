package main

// Directions for metricDef.Better.
const (
	higher = "higher"
	lower  = "lower"
)

// metricDef names one metric the benchmark reports, with its unit and
// which direction is an improvement. BENCHMARK.json at the repository
// root lists exactly these definitions; benchmark_json_test.go keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees that carry a
// regression bound. Every workload reports every one of them, so each
// is defined for a batch run and for a served job alike:
//
//   - setup_s: median time to build inputs, servers and ring before the
//     first sample, over several set-ups in one run;
//   - allocs_per_case, bytes_per_case: heap allocations over the timed
//     window ÷ cases;
//   - heap_peak_mb: peak live heap above the live heap before the work
//     started (closed loops: median over samples of the largest live
//     heap seen during the operation or at its end; open loop: the 99th
//     percentile of 10ms readings over the window, above the idle
//     server's).
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"allocs_per_case", "allocs", lower},
	{"bytes_per_case", "B", lower},
	{"heap_peak_mb", "MB", lower},
}

// bounds is each end-to-end metric's regression bound: the share of
// the baseline median by which it may worsen before a change counts as
// a regression. Over ten seeded runs the quartile spread of the
// allocation counts stays under 4% and that of the heap under 9%.
// setup_s takes the widest bound allowed: it is a wall time, and moves
// with the host.
var bounds = map[string]float64{
	"setup_s":         0.25,
	"allocs_per_case": 0.15,
	"bytes_per_case":  0.15,
	"heap_peak_mb":    0.25,
}

// timings are the speed a user sees, reported by every workload with
// median, quartiles and sample count, but without a bound: on a shared
// two-vCPU host the speed drifts by a quarter or more over minutes (the
// quartile spread of ten seeded runs of one workload reached 0.45 of
// their median, and one ten-run set's fuzz throughput was 36% below
// another's), more than the widest bound allowed, so a bound would
// reject unchanged code. Compare them between runs made side by side.
//
//   - op_p50_ms: median latency of one operation — a corpus run, a skew
//     matrix, a fuzz campaign, or a crossd/cluster job timed from when it
//     was due to when it was done;
//   - cases_per_s: oracle-checked cases per second (closed loops: median
//     over samples of cases ÷ sample wall; open loop: cases executed ÷
//     time from first due to last done).
var timings = []metricDef{
	{"op_p50_ms", "ms", lower},
	{"cases_per_s", "cases/s", higher},
}

// perLayer are the traced run's layer metrics. Every workload reports
// every one of them. Times are measured on each workload's own cases;
// layers a workload does not pass through (the crossd scheduler for a
// batch run, the cluster hop for a single node) are reported as shares,
// ratios or counts, which are honestly 0 there.
var perLayer = []metricDef{
	// core: the harness around the engines.
	{"core.case_us", "us", lower},
	{"core.harness_self_ms", "ms", lower},
	{"core.report_ms", "ms", lower},
	{"core.deploy_us", "us", lower},
	{"core.tables_per_deploy", "count", lower},
	{"core.skew_probe_share", "fraction", lower},
	// The engines, from their own spans (self time per call).
	{"sparksim.sql_self_us", "us", lower},
	{"sparksim.df_save_self_us", "us", lower},
	{"sparksim.df_scan_self_us", "us", lower},
	{"hivesim.hiveql_self_us", "us", lower},
	{"hivesim.metastore_ops_per_case", "count", lower},
	{"engine.error_frac", "fraction", lower},
	// The warehouse file system, by isolated replay of the written paths.
	{"hdfssim.files", "count", lower},
	{"hdfssim.list_us", "us", lower},
	{"hdfssim.list_share", "fraction", lower},
	// The SQL parser and the three file formats, by isolated replay.
	{"sqlparse.parse_us", "us", lower},
	{"sqlparse.allocs_per_parse", "allocs", lower},
	{"serde.orc.encode_us", "us", lower},
	{"serde.orc.decode_us", "us", lower},
	{"serde.orc.allocs", "allocs", lower},
	{"serde.parquet.encode_us", "us", lower},
	{"serde.parquet.decode_us", "us", lower},
	{"serde.parquet.allocs", "allocs", lower},
	{"serde.avro.encode_us", "us", lower},
	{"serde.avro.decode_us", "us", lower},
	{"serde.avro.allocs", "allocs", lower},
	// Fuzz-case generation and shrinking, as shares of campaign time.
	{"fuzzgen.generate_share", "fraction", lower},
	{"fuzzgen.shrink_share", "fraction", lower},
	// The crossd scheduler, as shares of job latency.
	{"serve.submit_share", "fraction", lower},
	{"serve.queue_wait_share", "fraction", lower},
	{"serve.cache_probe_share", "fraction", lower},
	{"serve.run_share", "fraction", lower},
	{"serve.encode_share", "fraction", lower},
	{"serve.cache_hit_ratio", "fraction", higher},
	{"serve.coalesced_frac", "fraction", higher},
	{"serve.queue_depth_max", "count", lower},
	// The load generator itself.
	{"client.send_lag_p99_ms", "ms", lower},
	// Observability: the shipped crossd tracing config, and the cost of
	// this benchmark's own tracing.
	{"obs.shipped_overhead_x", "x", lower},
	{"obs.spans_per_case", "count", lower},
	{"obs.bench_trace_overhead_frac", "fraction", lower},
	// The cluster hop, as shares of job latency.
	{"cluster.split_share", "fraction", lower},
	{"cluster.merge_share", "fraction", lower},
	{"cluster.hop_share", "fraction", lower},
	{"cluster.steal_frac", "fraction", lower},
	{"cluster.peer_hit_ratio", "fraction", higher},
}

// detailLayer are per-layer numbers written to the -traced summary only
// where a workload measures them: absolute times of layers that not
// every workload passes through.
var detailLayer = []metricDef{
	{"fuzzgen.generate_us", "us", lower},
	{"fuzzgen.batch_ms", "ms", lower},
	{"fuzzgen.tables_per_batch", "count", lower},
	{"fuzzgen.shrink_ms", "ms", lower},
	{"serve.submit_ms", "ms", lower},
	{"serve.cachekey_us", "us", lower},
	{"serve.queue_wait_ms", "ms", lower},
	{"serve.cache_probe_ms", "ms", lower},
	{"serve.run_ms", "ms", lower},
	{"serve.encode_ms", "ms", lower},
	{"cluster.split_us", "us", lower},
	{"cluster.merge_ms", "ms", lower},
	{"cluster.remote_ms", "ms", lower},
	{"cluster.worker_run_ms", "ms", lower},
	{"cluster.hop_overhead_ms", "ms", lower},
}

// metricByName indexes every known definition.
var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, timings, perLayer, detailLayer} {
		for _, d := range list {
			m[d.Name] = d
		}
	}
	return m
}()
