package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The crossd workload is an open loop: jobs arrive on a seeded schedule
// at crossdRate regardless of how fast the server finishes them, so a
// slower service time shows as queueing. The shipped tracing makes a
// 100-group fuzz job cost about 0.4s on two shared cores, and at 5 such
// jobs/s the server queues for seconds; 3 jobs/s of 50-group jobs keeps
// it near a third of its capacity, where latency still reflects service
// time first and queueing second, and stays repeatable from run to run.
// Jobs leave parallel unset, as the API does by default: each runs on
// one scheduler worker and one core, so two jobs at once do not also
// fight over their harness goroutines.
const (
	crossdRate     = 3.0 // jobs per second
	crossdFuzzN    = 50
	crossdRecent   = 20   // a resubmission repeats one of the last 20 specs
	crossdSLO      = 1000 // ms from due to done
	maxLagMs       = 50   // a run whose p99 send lag exceeds this is flagged
	crossdDrainMax = 90 * time.Second
)

// crossdMix is the job mix, in shares of the arrivals: fresh fuzz
// campaigns, resubmissions of recent specs (cache hits, or coalescing
// onto a running job), fresh partition campaigns, and corpus slices
// costing about one fuzz job.
var crossdMix = []struct {
	kind  string
	share float64
}{
	{"fuzz", 0.6},
	{"resubmit", 0.2},
	{"partition", 0.1},
	{"corpus", 0.1},
}

// corpusSlices are corpus jobs whose cost is near a fuzz job's under the
// shipped observability (60-160ms on two cores).
var corpusSlices = []serve.JobSpec{
	{Kind: serve.KindCorpus, InputPrefix: "tinyint_", Families: []string{"sh"}},
	{Kind: serve.KindCorpus, InputPrefix: "smallint_", Families: []string{"hs"}},
	{Kind: serve.KindCorpus, InputPrefix: "varchar_", Families: []string{"hs"}},
	{Kind: serve.KindCorpus, InputPrefix: "decimal_", Families: []string{"hs"}},
	{Kind: serve.KindCorpus, InputPrefix: "date_", Families: []string{"hs"}},
	{Kind: serve.KindCorpus, InputPrefix: "int_", Families: []string{"sh"}},
	{Kind: serve.KindCorpus, InputPrefix: "tinyint_", Families: []string{"hs"}},
	{Kind: serve.KindCorpus, InputPrefix: "smallint_", Families: []string{"sh"}},
	{Kind: serve.KindCorpus, InputPrefix: "varchar_", Families: []string{"sh"}},
	{Kind: serve.KindCorpus, InputPrefix: "int_", Families: []string{"hs"}},
	{Kind: serve.KindCorpus, InputPrefix: "date_", Families: []string{"sh"}},
	{Kind: serve.KindCorpus, InputPrefix: "decimal_", Families: []string{"sh"}},
}

// freshJobs are the n jobs of one kind a window submits: fuzz and
// partition campaigns on seeds 1..n, or the first n corpus slices. The
// set is the same for every workload seed, which only orders it, so
// runs on different seeds differ in timing and not in the work done.
func freshJobs(rng *rand.Rand, kind string, n int) []serve.JobSpec {
	out := make([]serve.JobSpec, n)
	for k := range out {
		switch kind {
		case "fuzz":
			out[k] = serve.JobSpec{Kind: serve.KindFuzz, Seed: uint64(k + 1), N: crossdFuzzN}
		case "partition":
			out[k] = serve.JobSpec{Kind: serve.KindPartition, Seed: uint64(k + 1)}
		case "corpus":
			out[k] = corpusSlices[k%len(corpusSlices)]
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// arrival is one scheduled submission.
type arrival struct {
	Due  time.Duration `json:"due"`
	Kind string        `json:"kind"`
	Spec serve.JobSpec `json:"spec"`
}

// crossdSchedule draws the open-loop arrivals of one window from the
// seed: rate × window jobs at uniformly random times (a Poisson process
// conditioned on its count), with the mix's exact proportions in random
// order, each resubmission repeating a random one of the 20 jobs before
// it.
func crossdSchedule(rng *rand.Rand, window time.Duration) []arrival {
	n := int(math.Round(crossdRate * window.Seconds()))
	if n < 1 {
		n = 1
	}
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })

	// Largest-remainder apportionment of n over the mix.
	counts := make([]int, len(crossdMix))
	left := n
	for i, m := range crossdMix {
		counts[i] = int(m.share * float64(n))
		left -= counts[i]
	}
	for i := 0; left > 0; i = (i + 1) % len(counts) {
		counts[i]++
		left--
	}
	var kinds []string
	fresh := map[string][]serve.JobSpec{}
	for i, m := range crossdMix {
		for j := 0; j < counts[i]; j++ {
			kinds = append(kinds, m.kind)
		}
		fresh[m.kind] = freshJobs(rng, m.kind, counts[i])
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// A resubmission needs something to repeat.
	for i, k := range kinds {
		if k != "resubmit" {
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}

	out := make([]arrival, n)
	for i := range out {
		a := arrival{Due: dues[i], Kind: kinds[i]}
		if a.Kind == "resubmit" {
			lo := max(0, i-crossdRecent)
			a.Spec = out[lo+rng.Intn(i-lo)].Spec
		} else {
			a.Spec, fresh[a.Kind] = fresh[a.Kind][0], fresh[a.Kind][1:]
		}
		out[i] = a
	}
	return out
}

// served is one submission's record.
type served struct {
	arrival
	lag, submit time.Duration
	sent        time.Time
	id          string
	cacheHit    bool
	coalesced   bool
	first, done time.Time
	err         error
}

// runCrossd drives an in-process crossd with the shipped defaults over
// one keep-alive connection, and watches completion in-process.
func runCrossd(cfg *config) (*result, error) {
	r := newResult("crossd")
	window := time.Duration(cfg.seconds * float64(time.Second))
	type setup struct {
		n        *node
		c        *client
		schedule []arrival
	}
	s, secs, err := measureSetup(func() (setup, error) {
		n, err := startNode(newShippedObs(), nil, nil, nil)
		if err != nil {
			return setup{}, err
		}
		c := newClient(n.url)
		if err := c.connect(); err != nil {
			n.close()
			return setup{}, err
		}
		return setup{n: n, c: c, schedule: crossdSchedule(cfg.rng(), window)}, nil
	}, func(s setup) { s.c.close(); s.n.close() })
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = secs
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			s.c.close()
			s.n.close()
		}
	}
	defer shutdown()

	o := s.n.obs
	queue := o.metrics.Gauge(obs.MetricQueueDepth)
	jobs := make([]served, len(s.schedule))
	var wg sync.WaitGroup
	var tr *obs.Tracer
	if cfg.trace {
		tr = cfg.tracer(r.workload, "jobs")
	}
	seen := map[string]bool{}
	idle := float64(liveAfterGC()) / (1 << 20)
	before := readAllocs()
	smp := startSampler(queue.Value)
	t0 := time.Now()
	for i, a := range s.schedule {
		due := t0.Add(a.Due)
		time.Sleep(time.Until(due))
		j := &jobs[i]
		j.arrival = a
		j.sent = time.Now()
		j.lag = j.sent.Sub(due)
		sp := opSpan(tr, nil, "submit", i).Set("kind", a.Kind)
		st, code, err := s.c.submit(a.Spec)
		j.submit = time.Since(j.sent)
		sp.Fail(err).End()
		j.id, j.err = st.ID, err
		if err != nil {
			continue
		}
		j.coalesced = seen[st.ID]
		seen[st.ID] = true
		if code == http.StatusOK && st.CacheHit {
			j.cacheHit = true
			j.first = time.Now()
			j.done = j.first
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := opSpan(tr, nil, "wait", i)
			j.first, j.done, j.err = watch(s.n.sched, j.id)
			sp.Fail(j.err).End()
		}()
	}
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(crossdDrainMax):
		r.problem("jobs still running %s after the last arrival", crossdDrainMax)
		shutdown() // cancels what is left; the watchers then return
		<-all
	}
	heapMB, depthPeak := smp.finish()
	allocs := readAllocs().sub(before)

	var specs []serve.JobSpec
	for _, a := range s.schedule {
		specs = append(specs, a.Spec)
	}
	want, plain, err := directSHA(specs)
	if err != nil {
		return nil, err
	}
	cases, err := checkServed(r, s.n.sched, jobs, want)
	if err != nil {
		return nil, err
	}

	// Latency from each job's due time.
	firstDue := t0.Add(s.schedule[0].Due)
	var lastDone time.Time
	var lat, firstEv, lags, submits []float64
	var latSum float64
	refused, coalesced, late := 0, 0, 0
	for i := range jobs {
		j := &jobs[i]
		r.attempted++
		lags = append(lags, float64(j.lag)/float64(time.Millisecond))
		if j.err != nil {
			refused++
			continue
		}
		submits = append(submits, float64(j.submit)/float64(time.Millisecond))
		due := t0.Add(j.Due)
		ms := float64(j.done.Sub(due)) / float64(time.Millisecond)
		lat = append(lat, ms)
		latSum += ms
		if ms > crossdSLO {
			late++
		}
		if j.done.After(lastDone) {
			lastDone = j.done
		}
		if j.coalesced {
			coalesced++
		}
		if !j.cacheHit && !j.coalesced {
			firstEv = append(firstEv, float64(j.first.Sub(due))/float64(time.Millisecond))
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no crossd job completed")
	}
	window = lastDone.Sub(firstDue)
	r.e2e["op_p50_ms"] = lat
	r.e2e["cases_per_s"] = []float64{float64(cases) / window.Seconds()}
	r.e2e["allocs_per_case"] = []float64{ratio(float64(allocs.objects), float64(cases))}
	r.e2e["bytes_per_case"] = []float64{ratio(float64(allocs.bytes), float64(cases))}
	// The peak is the live heap held for at least 1% of the window, less
	// the idle server's: a maximum over 10ms readings would hinge on one
	// collection cycle in which two large jobs happened to overlap.
	sort.Float64s(heapMB)
	r.e2e["heap_peak_mb"] = []float64{percentile(heapMB, 99) - idle}
	r.extra["first_event_ms"] = firstEv
	r.extra["send_lag_ms"] = lags
	r.extra["slo_miss_frac"] = []float64{float64(refused+late) / float64(len(jobs))}
	sorted := append([]float64(nil), lags...)
	sort.Float64s(sorted)
	if p99 := percentile(sorted, 99); p99 > maxLagMs {
		r.invalid = fmt.Sprintf("generator lag p99 %.1fms exceeds %dms", p99, maxLagMs)
	}
	if !cfg.trace {
		return r, nil
	}

	r.layers["serve.submit_ms"] = median(submits)
	r.layers["serve.submit_share"] = ratio(sum(submits), latSum)
	stageLayers(o.metrics, latSum, r.layers)
	r.layers["serve.coalesced_frac"] = ratio(float64(coalesced), float64(len(lat)))
	r.layers["serve.queue_depth_max"] = depthPeak
	r.layers["client.send_lag_p99_ms"] = percentile(sorted, 99)
	r.layers["obs.spans_per_case"] = ratio(float64(o.spansCreated()), float64(cases))
	shutdown()
	distinct, err := distinctSpecs(specs)
	if err != nil {
		return nil, err
	}
	if r.layers["serve.cachekey_us"], err = cacheKeyUs(distinct); err != nil {
		return nil, err
	}
	var work []serve.JobSpec
	for _, sp := range distinct {
		if sp.Kind != serve.KindPartition {
			work = append(work, sp)
		}
	}
	if err := specOverhead(r, work, plain); err != nil {
		return nil, err
	}
	return r, replaySpecs(cfg, r, work)
}

// checkServed is the crossd workload's correctness check, made after the
// window: a job that was refused, lost or failed is a wrong output, and
// so is a result whose report differs from a direct execution of its
// spec (want, by cache key). A run that sheds load therefore fails
// instead of reporting the latency of the jobs it kept. It returns the
// cases the executed jobs checked.
func checkServed(r *result, sched *serve.Scheduler, jobs []served, want map[string]string) (int, error) {
	cases := 0
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			r.problem("job %d (%s): %v", i, j.Kind, j.err)
			continue
		}
		res, err := jobResult(sched, j.id)
		if err != nil {
			r.problem("job %d (%s): %v", i, j.Kind, err)
			continue
		}
		if key, _ := j.Spec.CacheKey(); res.ReportSHA != want[key] {
			r.problem("job %d (%s): report sha %s, direct execution %s", i, j.Kind, res.ReportSHA, want[key])
		}
		if !j.cacheHit && !j.coalesced {
			n, err := specCases(res)
			if err != nil {
				return 0, err
			}
			cases += n
		}
	}
	return cases, nil
}
