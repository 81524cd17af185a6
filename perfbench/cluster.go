package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chash"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The cluster workload is a closed loop of one client in front of a
// coordinator crossd over two worker crossds on loopback, every node
// with the shipped defaults (workers join the peer-cache tier, the
// coordinator splits fuzz campaigns in two). The job mix is three fuzz
// campaigns to one partition campaign; clusterFuzzN makes a fuzz job
// take about half a second on two cores.
const (
	clusterFuzzN = 200
	clusterSplit = 2
)

var clusterWorkers = []string{"a", "b"}

// roundTrip is one HTTP exchange the coordinator made with a worker.
type roundTrip struct {
	node       string
	method     string
	path       string
	start, end time.Time
}

// timingTransport records every request of the coordinator's node
// clients: the remote-call layer, measured from outside.
type timingTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	trips []roundTrip
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.trips = append(t.trips, roundTrip{node: req.URL.Host, method: req.Method, path: req.URL.Path, start: start, end: time.Now()})
	t.mu.Unlock()
	return resp, err
}

// remoteCalls pairs each sub-job submission with the result fetch that
// ended it on the same worker (each worker runs its sub-jobs one at a
// time) and returns the sub-job round-trip times.
func (t *timingTransport) remoteCalls() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	open := map[string]time.Time{}
	var out []time.Duration
	for _, rt := range t.trips {
		switch {
		case rt.method == http.MethodPost && rt.path == "/api/v1/jobs":
			open[rt.node] = rt.start
		case rt.method == http.MethodGet && strings.HasSuffix(rt.path, "/result"):
			if s, ok := open[rt.node]; ok {
				out = append(out, rt.end.Sub(s))
				delete(open, rt.node)
			}
		}
	}
	return out
}

// clusterRig is a running coordinator, its workers and the client.
type clusterRig struct {
	workers []*node
	coord   *node
	timing  *timingTransport
	tr      *http.Transport
	c       *client
}

func startCluster() (*clusterRig, error) {
	rig := &clusterRig{}
	peers := map[string]*cluster.NodeClient{}
	tiers := map[string]*cluster.Peers{}
	for _, name := range clusterWorkers {
		p := cluster.NewPeers(name)
		n, err := startNode(newShippedObs(), nil, p, nil)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.workers = append(rig.workers, n)
		peers[name] = &cluster.NodeClient{Name: name, BaseURL: n.url}
		tiers[name] = p
	}
	ring := chash.New(clusterWorkers...)
	for _, p := range tiers {
		p.Connect(ring, peers)
	}
	rig.tr = http.DefaultTransport.(*http.Transport).Clone()
	rig.timing = &timingTransport{base: rig.tr}
	nodes := map[string]*cluster.NodeClient{}
	for i, name := range clusterWorkers {
		nodes[name] = &cluster.NodeClient{
			Name: name, BaseURL: rig.workers[i].url,
			HTTP: &http.Client{Timeout: 30 * time.Second, Transport: rig.timing},
		}
	}
	o := newShippedObs()
	coord, err := cluster.New(cluster.Options{Nodes: nodes, SplitFactor: clusterSplit, Metrics: o.metrics, Recorder: o.recorder})
	if err != nil {
		rig.close()
		return nil, err
	}
	view := &cluster.MetricsHandler{Nodes: nodes, Self: o.metrics, SelfName: "coordinator"}
	if rig.coord, err = startNode(o, coord, nil, view); err != nil {
		rig.close()
		return nil, err
	}
	rig.c = newClient(rig.coord.url)
	if err := rig.c.connect(); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (rig *clusterRig) close() {
	if rig.c != nil {
		rig.c.close()
	}
	if rig.coord != nil {
		rig.coord.close()
	}
	for _, n := range rig.workers {
		n.close()
	}
	if rig.tr != nil {
		rig.tr.CloseIdleConnections()
	}
	// The workers' peer clients use the default transport, as crossd's.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// clusterJobs is the closed loop's job sequence: blocks of three fuzz
// campaigns and one partition campaign, each block in an order drawn
// from the seed. The campaigns are the same for every seed — block b
// holds fuzz campaigns 3b+1..3b+3 and partition campaign b+1 — so runs
// on different seeds do the same work in another order (a 200-group
// campaign's cost varies up to twofold with its campaign seed).
// Blocks are drawn as the loop needs them.
type clusterJobs struct {
	rng   *rand.Rand
	specs []serve.JobSpec
}

func (g *clusterJobs) at(i int) serve.JobSpec {
	for len(g.specs) <= i {
		b := uint64(len(g.specs) / 4)
		block := []serve.JobSpec{
			{Kind: serve.KindFuzz, N: clusterFuzzN, Seed: 3*b + 1},
			{Kind: serve.KindFuzz, N: clusterFuzzN, Seed: 3*b + 2},
			{Kind: serve.KindFuzz, N: clusterFuzzN, Seed: 3*b + 3},
			{Kind: serve.KindPartition, Seed: b + 1},
		}
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		g.specs = append(g.specs, block...)
	}
	return g.specs[i]
}

// runCluster submits one job at a time to the coordinator and waits for
// it in-process.
func runCluster(cfg *config) (*result, error) {
	r := newResult("cluster")
	rig, secs, err := measureSetup(startCluster, (*clusterRig).close)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = secs
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			rig.close()
		}
	}
	defer shutdown()

	jobs := &clusterJobs{rng: cfg.rng()}
	var ran []serve.JobSpec
	var ids []string
	var submits []float64
	var latSum float64 // every job's latency, warm-up included, as the stage histograms see them
	depth := 0.0
	queue := rig.coord.obs.metrics.Gauge(obs.MetricQueueDepth)
	sched := rig.coord.sched
	err = closedLoop(cfg, r, 0, func(i int) (opOutcome, error) {
		spec := jobs.at(i + 1)
		start := time.Now()
		st, _, err := rig.c.submit(spec)
		submitted := time.Since(start)
		if err != nil {
			return opOutcome{}, err
		}
		depth = max(depth, queue.Value())
		_, done, err := watch(sched, st.ID)
		if err != nil {
			return opOutcome{}, err
		}
		latSum += float64(done.Sub(start)) / float64(time.Millisecond)
		res, err := jobResult(sched, st.ID)
		if err != nil {
			return opOutcome{}, err
		}
		cases, err := specCases(res)
		if err != nil {
			return opOutcome{}, err
		}
		if i >= 0 {
			ran = append(ran, spec)
			ids = append(ids, st.ID)
			submits = append(submits, float64(submitted)/float64(time.Millisecond))
		}
		return opOutcome{cases: cases}, nil // checked after the window
	})
	if err != nil {
		return r, err
	}

	// Correctness: every merged result equals a direct single-node
	// execution of the unsplit spec.
	want, plain, err := directSHA(ran)
	if err != nil {
		return nil, err
	}
	for i, spec := range ran {
		res, err := jobResult(sched, ids[i])
		if err != nil {
			r.problem("job %d: %v", i, err)
			continue
		}
		if key, _ := spec.CacheKey(); res.ReportSHA != want[key] {
			r.problem("job %d (%s): merged report sha %s, single node %s", i, spec.Kind, res.ReportSHA, want[key])
		}
	}
	if !cfg.trace {
		return r, nil
	}

	r.layers["serve.submit_ms"] = median(submits)
	r.layers["serve.submit_share"] = ratio(sum(submits), latSum)
	stageLayers(rig.coord.obs.metrics, latSum, r.layers)
	r.layers["serve.queue_depth_max"] = depth
	sendLag(r)
	if err := clusterLayers(r, rig, ran, latSum); err != nil {
		return nil, err
	}
	shutdown()
	var work []serve.JobSpec
	for _, s := range ran {
		if s.Kind != serve.KindPartition {
			work = append(work, s)
		}
	}
	if err := specOverhead(r, work, plain); err != nil {
		return nil, err
	}
	return r, replaySpecs(cfg, r, work)
}

// clusterLayers stores the split, remote-call and merge layers: the
// coordinator's stage histograms and fan-out counters, the workers' run
// stage and peer-cache counters, the benchmark's timing of every remote
// call, and timed cluster.Split and cluster.Merge calls on the run's
// specs.
func clusterLayers(r *result, rig *clusterRig, specs []serve.JobSpec, latSum float64) error {
	cm := rig.coord.obs.metrics
	split := cm.Histogram(obs.MetricStageDurationMs, nil, "stage", obs.StageSplit)
	merge := cm.Histogram(obs.MetricStageDurationMs, nil, "stage", obs.StageMerge)
	r.layers["cluster.split_share"] = ratio(split.Sum(), latSum)
	r.layers["cluster.merge_share"] = ratio(merge.Sum(), latSum)
	var dispatched, stolen, hits, misses int64
	var workerRun float64
	var workerRuns int64
	spans := rig.coord.obs.spansCreated()
	for i, name := range clusterWorkers {
		dispatched += cm.Counter(obs.MetricSubJobsDispatch, "node", name).Value()
		stolen += cm.Counter(obs.MetricSubJobsStolen, "node", name).Value()
		wm := rig.workers[i].obs.metrics
		hits += wm.Counter(obs.MetricPeerCacheHits).Value()
		misses += wm.Counter(obs.MetricPeerCacheMisses).Value()
		h := wm.Histogram(obs.MetricStageDurationMs, nil, "stage", obs.StageRun)
		workerRun += h.Sum()
		workerRuns += h.Count()
		spans += rig.workers[i].obs.spansCreated()
	}
	r.layers["cluster.steal_frac"] = ratio(float64(stolen), float64(dispatched))
	r.layers["cluster.peer_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	var remote float64
	calls := rig.timing.remoteCalls()
	for _, d := range calls {
		remote += float64(d) / float64(time.Millisecond)
	}
	r.layers["cluster.remote_ms"] = ratio(remote, float64(len(calls)))
	r.layers["cluster.worker_run_ms"] = ratio(workerRun, float64(workerRuns))
	r.layers["cluster.hop_overhead_ms"] = r.layers["cluster.remote_ms"] - r.layers["cluster.worker_run_ms"]
	r.layers["cluster.hop_share"] = ratio(remote-workerRun, remote)

	const splitReps = 20
	t := time.Now()
	for i := 0; i < splitReps; i++ {
		for _, s := range specs {
			if _, _, err := cluster.Split(s, clusterSplit); err != nil {
				return err
			}
		}
	}
	r.layers["cluster.split_us"] = ratio(float64(time.Since(t))/float64(time.Microsecond), float64(splitReps*len(specs)))
	var mergeMs []float64
	exec := &serve.Executor{}
	for i, s := range specs {
		if i == specReplays {
			break
		}
		subs, ok, err := cluster.Split(s, clusterSplit)
		if err != nil || !ok {
			return fmt.Errorf("split %s job: ok=%t err=%v", s.Kind, ok, err)
		}
		results := make([]*serve.JobResult, len(subs))
		for k, sub := range subs {
			if results[k], err = exec.Execute(context.Background(), sub.Spec, nil); err != nil {
				return err
			}
		}
		t := time.Now()
		if _, err := cluster.Merge(s, results); err != nil {
			return err
		}
		mergeMs = append(mergeMs, float64(time.Since(t))/float64(time.Millisecond))
	}
	r.layers["cluster.merge_ms"] = median(mergeMs)
	var total int
	for _, job := range rig.coord.sched.Jobs() {
		if res, err := jobResult(rig.coord.sched, job.ID); err == nil {
			if n, err := specCases(res); err == nil {
				total += n
			}
		}
	}
	r.layers["obs.spans_per_case"] = ratio(float64(spans), float64(total))
	return nil
}
