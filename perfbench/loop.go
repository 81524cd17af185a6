package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/obs"
)

// config is what every workload run receives.
type config struct {
	seed    uint64
	seconds float64 // timed window length
	trace   bool    // run the traced phase and report per-layer metrics
	spans   *spanLog
}

// rng is the workload's input generator: every input a workload builds
// derives from the seed alone.
func (c *config) rng() *rand.Rand { return rand.New(rand.NewSource(int64(c.seed))) }

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // correctness failures, each also counted in failed
	// e2e holds the per-sample observations of each end-to-end metric
	// and timing; the reported value is their median.
	e2e map[string][]float64
	// extra are further observations printed and recorded but not part
	// of BENCHMARK.json (tails, first-event latency, SLO misses).
	extra map[string][]float64
	// layers are the traced run's per-layer values.
	layers map[string]float64
	// invalid flags a measurement the benchmark itself spoiled
	// (generator lag); the outputs may still be correct.
	invalid string
}

func newResult(name string) *result {
	return &result{workload: name, e2e: map[string][]float64{}, extra: map[string][]float64{}, layers: map[string]float64{}}
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// setup_s is the median of setupReps timed set-ups. A set-up of a few
// microseconds is at the mercy of a cold cache or one timer tick, so a
// set-up shorter than setupRepMin is repeated back to back within a rep
// and the rep reports the mean of its builds. The first setupWarm builds
// are not timed: they fault in the heap and the code, which a run pays
// once whatever its set-up does.
const (
	setupReps   = 21
	setupWarm   = 2
	setupRepMin = 10 * time.Millisecond
)

// measureSetup builds the workload setupWarm times, then setupReps reps
// of k builds each, discarding every build but the last (untimed), and
// returns that build with each rep's seconds per build. Every rep starts
// from a collected heap, so whether the collector runs inside it does
// not depend on the reps before it.
func measureSetup[T any](build func() (T, error), discard func(T)) (T, []float64, error) {
	var v T
	built := false
	timed := func() (time.Duration, error) {
		if built && discard != nil {
			discard(v)
		}
		t := time.Now()
		var err error
		v, err = build()
		built = err == nil
		return time.Since(t), err
	}
	warm := time.Duration(math.MaxInt64)
	for i := 0; i < setupWarm; i++ {
		d, err := timed()
		if err != nil {
			return v, nil, err
		}
		warm = min(warm, d)
	}
	k := int(setupRepMin/max(warm, time.Microsecond)) + 1
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var total time.Duration
		for j := 0; j < k; j++ {
			d, err := timed()
			if err != nil {
				return v, nil, err
			}
			total += d
		}
		secs = append(secs, total.Seconds()/float64(k))
	}
	return v, secs, nil
}

// opOutcome is one closed-loop operation's output: the cases it
// oracle-checked and the correctness check, if any, to run on it once
// timing has stopped (the check's closure keeps the output alive through
// the end-of-sample heap measurement).
type opOutcome struct {
	cases int
	check func() error
}

// closedLoop runs op back to back — one discarded warm-up, then samples
// until op has run for the window — and records per-sample latency,
// throughput, allocations and peak live heap: the largest live heap the
// 10ms sampler saw during the operation, or at its end with its output
// still referenced, whichever is larger, less the live heap before the
// operation. Leaving out what earlier operations left behind (a cluster's
// result caches fill as jobs complete) keeps the value independent of
// how many operations a window fitted in. A traced run takes
// tracedSamples samples instead, when that is positive: its per-layer
// numbers come from the replays that follow.
func closedLoop(cfg *config, r *result, tracedSamples int, op func(i int) (opOutcome, error)) error {
	samples := 0
	var tr *obs.Tracer
	if cfg.trace {
		tr = cfg.tracer(r.workload, "ops")
		samples = tracedSamples
	}
	var measured time.Duration
	smp := startSampler(nil)
	defer smp.finish()
	sample := func(i int, record bool) error {
		idle := float64(liveAfterGC()) / (1 << 20)
		smp.takeHeap()
		before := readAllocs()
		sp := opSpan(tr, nil, r.workload, i)
		start := time.Now()
		out, err := op(i)
		wall := time.Since(start)
		sp.Fail(err).End()
		measured += wall
		allocs := readAllocs().sub(before)
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("sample %d: %w", i, err)
		}
		live := float64(liveAfterGC()) / (1 << 20)
		for _, h := range smp.takeHeap() {
			live = max(live, h)
		}
		if out.check != nil {
			if err := out.check(); err != nil {
				r.problem("sample %d: %v", i, err)
			}
		}
		if !record {
			return nil
		}
		ms := float64(wall) / float64(time.Millisecond)
		r.e2e["op_p50_ms"] = append(r.e2e["op_p50_ms"], ms)
		if out.cases == 0 {
			return nil // a partition job: no case to attribute cost to
		}
		cases := float64(out.cases)
		r.e2e["heap_peak_mb"] = append(r.e2e["heap_peak_mb"], live-idle)
		r.e2e["cases_per_s"] = append(r.e2e["cases_per_s"], cases/wall.Seconds())
		r.e2e["allocs_per_case"] = append(r.e2e["allocs_per_case"], ratio(float64(allocs.objects), cases))
		r.e2e["bytes_per_case"] = append(r.e2e["bytes_per_case"], ratio(float64(allocs.bytes), cases))
		return nil
	}
	if err := sample(-1, false); err != nil {
		return err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	measured = 0
	var prevEnd time.Time
	for i := 0; ; i++ {
		// Stop once the samples or the window are spent, but not before
		// one sample has checked cases (a cluster run may begin with
		// partition jobs).
		spent := (samples > 0 && i >= samples) || (samples == 0 && measured >= window)
		if spent && len(r.e2e["cases_per_s"]) > 0 {
			break
		}
		if !prevEnd.IsZero() {
			// A closed loop's generator lag: how long the client took to
			// issue the next operation once it was free to.
			r.extra["send_lag_ms"] = append(r.extra["send_lag_ms"], float64(time.Since(prevEnd))/float64(time.Millisecond))
		}
		if err := sample(i, true); err != nil {
			return err
		}
		prevEnd = time.Now()
	}
	return nil
}
