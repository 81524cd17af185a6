package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/chash"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/versions"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// testNode is one in-process crossd worker: a real scheduler over the
// real executor, served over HTTP, with a peer-cache tier attached.
type testNode struct {
	name     string
	exec     *serve.Executor
	sched    *serve.Scheduler
	peers    *Peers
	metrics  *obs.Registry
	recorder *obs.Recorder
	srv      *httptest.Server
}

// newTestNode builds a worker. runner overrides the executor used by
// the scheduler (for fault injection); the returned node's exec counter
// still observes real executions when the override wraps it.
func newTestNode(t *testing.T, name string, runner serve.Runner) *testNode {
	t.Helper()
	cache, err := serve.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{
		name:     name,
		exec:     &serve.Executor{},
		metrics:  obs.NewRegistry(),
		recorder: obs.NewRecorder(512),
		peers:    NewPeers(name),
	}
	if runner == nil {
		runner = n.exec
	}
	n.sched = serve.NewScheduler(serve.SchedulerOptions{
		Workers:    2,
		QueueDepth: 32,
		Cache:      cache,
		Executor:   runner,
		Metrics:    n.metrics,
		Recorder:   n.recorder,
		Peers:      n.peers,
	})
	n.srv = httptest.NewServer(serve.NewServer(n.sched, serve.ServerOptions{Metrics: n.metrics, Recorder: n.recorder}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		n.sched.Drain(ctx)
		n.srv.Close()
	})
	return n
}

// connectTier wires the nodes into one cache tier: every node gets the
// same ring and client map, so peer fetches resolve across the whole
// membership. Returns the client map for a coordinator to use.
func connectTier(nodes ...*testNode) map[string]*NodeClient {
	clients := map[string]*NodeClient{}
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		clients[n.name] = &NodeClient{Name: n.name, BaseURL: n.srv.URL, Poll: 2 * time.Millisecond}
		names = append(names, n.name)
	}
	ring := chash.New(names...)
	for _, n := range nodes {
		n.peers.Connect(ring, clients)
	}
	return clients
}

// frontend is a coordinator crossd: the Coordinator as the Runner
// behind an ordinary scheduler + server, with /cluster mounted.
type frontend struct {
	coord    *Coordinator
	sched    *serve.Scheduler
	metrics  *obs.Registry
	recorder *obs.Recorder
	srv      *httptest.Server
	client   *NodeClient
}

func newFrontend(t *testing.T, clients map[string]*NodeClient, split int) *frontend {
	t.Helper()
	metrics := obs.NewRegistry()
	recorder := obs.NewRecorder(512)
	coord, err := New(Options{Nodes: clients, SplitFactor: split, Metrics: metrics, Recorder: recorder})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := serve.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	f := &frontend{coord: coord, metrics: metrics, recorder: recorder}
	f.sched = serve.NewScheduler(serve.SchedulerOptions{
		Workers:    2,
		QueueDepth: 32,
		Cache:      cache,
		Executor:   coord,
		Metrics:    metrics,
		Recorder:   recorder,
	})
	f.srv = httptest.NewServer(serve.NewServer(f.sched, serve.ServerOptions{
		Metrics:  metrics,
		Recorder: recorder,
		Cluster:  &MetricsHandler{Nodes: clients, Self: metrics, SelfName: "coordinator"},
	}))
	f.client = &NodeClient{Name: "coordinator", BaseURL: f.srv.URL, Poll: 2 * time.Millisecond}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		f.sched.Drain(ctx)
		f.srv.Close()
	})
	return f
}

// newCluster spins up n workers plus a coordinator frontend.
func newCluster(t *testing.T, n, split int) ([]*testNode, *frontend) {
	t.Helper()
	nodes := make([]*testNode, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, newTestNode(t, fmt.Sprintf("node-%c", 'a'+i), nil))
	}
	clients := connectTier(nodes...)
	return nodes, newFrontend(t, clients, split)
}

// resultBytes renders a JobResult exactly as the scheduler's cache
// stores it, so cluster and single-node results byte-compare.
func resultBytes(t *testing.T, res *serve.JobResult) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// runDirect executes the spec unsplit on a plain single-process
// scheduler and returns the stored result bytes.
func runDirect(t *testing.T, spec serve.JobSpec) []byte {
	t.Helper()
	cache, err := serve.NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, QueueDepth: 8, Cache: cache, Executor: &serve.Executor{}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		sched.Drain(ctx)
	}()
	job, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("direct run did not finish")
	}
	if st := job.Status(); st.State != serve.StateDone {
		t.Fatalf("direct run: %+v", st)
	}
	data, _ := job.Result()
	return data
}

// runCluster submits the spec through the coordinator frontend over
// HTTP and returns the merged result re-rendered in cache encoding.
func runCluster(t *testing.T, f *frontend, spec serve.JobSpec) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := f.client.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	return resultBytes(t, res)
}

func sumExecutions(nodes []*testNode) int64 {
	var n int64
	for _, node := range nodes {
		n += node.exec.Executions()
	}
	return n
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bytes diverge from %s (regenerate with -update if intentional)", path)
	}
}

// The headline determinism contract for fuzz: a campaign split across
// 3 nodes merges byte-identically — the full stored JobResult,
// rendered report and hash included — to the same campaign on a single
// unsplit node. The offset campaign pins that the merge keeps the
// parent's From (its report prints "from=7" like the unsplit run).
func TestClusterFuzzByteIdenticalToSingleNode(t *testing.T) {
	for _, spec := range []serve.JobSpec{
		{Kind: serve.KindFuzz, Seed: 5, N: 60, Parallel: 2},
		{Kind: serve.KindFuzz, Seed: 5, N: 20, From: 7},
	} {
		t.Run(fmt.Sprintf("n=%d,from=%d", spec.N, spec.From), func(t *testing.T) {
			direct := runDirect(t, spec)

			nodes, front := newCluster(t, 3, 6)
			got := runCluster(t, front, spec)
			if !bytes.Equal(got, direct) {
				t.Errorf("3-node merged fuzz result differs from single-node run:\n got: %s\nwant: %s", got, direct)
			}
			if n := sumExecutions(nodes); n != 6 {
				t.Errorf("campaign executed %d sub-jobs, want 6", n)
			}

			// Every sub-job ran remotely; the coordinator's own registry
			// only saw fan-out, never a harness execution.
			var res serve.JobResult
			if err := json.Unmarshal(got, &res); err != nil {
				t.Fatal(err)
			}
			if res.Fuzz == nil || res.Fuzz.Failures == 0 {
				t.Fatalf("merged campaign found no failures: %+v", res.Fuzz)
			}
			if res.Fuzz.From != spec.From {
				t.Errorf("merged campaign from = %d, want %d", res.Fuzz.From, spec.From)
			}
			if res.Merge != nil {
				t.Error("merged parent result leaks shard MergeMeta")
			}
		})
	}
}

// Satellite: the golden Figure-6 corpus through 1-node and 3-node
// clusters. Both merge to the same bytes as an unsplit single-node
// run, and the merged ReportJSON + report hash are pinned as goldens.
func TestClusterCorpusGolden(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindCorpus, Parallel: 4}
	direct := runDirect(t, spec)

	_, front1 := newCluster(t, 1, 0)
	one := runCluster(t, front1, spec)
	nodes3, front3 := newCluster(t, 3, 0)
	three := runCluster(t, front3, spec)

	if !bytes.Equal(one, direct) {
		t.Error("1-node cluster corpus result differs from unsplit single-node run")
	}
	if !bytes.Equal(three, direct) {
		t.Error("3-node cluster corpus result differs from unsplit single-node run")
	}
	if n := sumExecutions(nodes3); n != 3 {
		t.Errorf("3-node corpus executed %d family shards, want 3", n)
	}

	var res serve.JobResult
	if err := json.Unmarshal(three, &res); err != nil {
		t.Fatal(err)
	}
	rj, err := json.MarshalIndent(res.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_corpus_report.json", append(rj, '\n'))
	checkGolden(t, "cluster_corpus_sha.txt", []byte(res.ReportSHA+"\n"))
	if res.ReportSHA != core.HashBytes([]byte(res.Rendered)) {
		t.Error("merged report hash does not cover the rendered bytes")
	}
}

// Satellite: the 5-pair skew matrix through 1-node vs 3-node clusters,
// pinned against the unsplit run and the goldens.
func TestClusterSkewGolden(t *testing.T) {
	var pairs []string
	for _, p := range versions.DefaultPairs() {
		pairs = append(pairs, p.String())
	}
	if len(pairs) != 5 {
		t.Fatalf("default matrix has %d pairs, want 5", len(pairs))
	}
	// CHAR inputs keep each cell cheap while still crossing the
	// SPARK-33480 skew boundary on the upgrade pairs.
	spec := serve.JobSpec{Kind: serve.KindSkew, InputPrefix: "char", Pairs: pairs, Parallel: 4}
	direct := runDirect(t, spec)

	_, front1 := newCluster(t, 1, 0)
	one := runCluster(t, front1, spec)
	nodes3, front3 := newCluster(t, 3, 0)
	three := runCluster(t, front3, spec)

	if !bytes.Equal(one, direct) {
		t.Error("1-node cluster skew matrix differs from unsplit single-node run")
	}
	if !bytes.Equal(three, direct) {
		t.Error("3-node cluster skew matrix differs from unsplit single-node run")
	}
	if n := sumExecutions(nodes3); n != 5 {
		t.Errorf("3-node skew executed %d pair cells, want 5", n)
	}

	var res serve.JobResult
	if err := json.Unmarshal(three, &res); err != nil {
		t.Fatal(err)
	}
	sj, err := json.MarshalIndent(res.Skew, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_skew.json", append(sj, '\n'))
	checkGolden(t, "cluster_skew_sha.txt", []byte(res.ReportSHA+"\n"))
}

// Partition campaigns split per scenario and merge byte-identically.
func TestClusterPartitionByteIdentical(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindPartition, Seed: 3, Trials: 5}
	direct := runDirect(t, spec)
	nodes, front := newCluster(t, 3, 0)
	got := runCluster(t, front, spec)
	if !bytes.Equal(got, direct) {
		t.Errorf("3-node merged partition result differs from single-node run:\n got: %s\nwant: %s", got, direct)
	}
	if n := sumExecutions(nodes); n == 0 {
		t.Error("no scenario sub-jobs executed")
	}
}

// Sweeps do not split; the coordinator runs them whole on one node and
// passes the result through untouched.
func TestClusterSweepPassthrough(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindSweep, InputPrefix: "char", Parallel: 4}
	direct := runDirect(t, spec)
	nodes, front := newCluster(t, 3, 0)
	got := runCluster(t, front, spec)
	if !bytes.Equal(got, direct) {
		t.Errorf("sweep passthrough differs from single-node run:\n got: %s\nwant: %s", got, direct)
	}
	if n := sumExecutions(nodes); n != 1 {
		t.Errorf("sweep executed %d times across the cluster, want 1", n)
	}
}

// The reshard headline: run a campaign on 3 nodes, grow the cluster to
// 4, and resubmit through a fresh coordinator. The consistent-hash
// cache tier serves every sub-job from local or peer caches — zero
// re-execution — and the merged bytes are identical.
func TestClusterReshardZeroReExecution(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindFuzz, Seed: 11, N: 90, Parallel: 2}
	const split = 6

	nodes := []*testNode{
		newTestNode(t, "node-a", nil),
		newTestNode(t, "node-b", nil),
		newTestNode(t, "node-c", nil),
	}
	clients3 := connectTier(nodes...)
	front3 := newFrontend(t, clients3, split)

	start := time.Now()
	first := runCluster(t, front3, spec)
	coldElapsed := time.Since(start)
	execAfterFirst := sumExecutions(nodes)
	if execAfterFirst != split {
		t.Fatalf("first campaign executed %d sub-jobs, want %d", execAfterFirst, split)
	}

	// Grow the cluster: a fresh node joins, every peer tier reconnects
	// to the 4-node ring, and a fresh coordinator (empty parent cache)
	// fronts the new membership.
	nodeD := newTestNode(t, "node-d", nil)
	nodes = append(nodes, nodeD)
	clients4 := connectTier(nodes...)
	front4 := newFrontend(t, clients4, split)

	// How many sub-jobs changed owner tells us how many peer fetches to
	// expect; the ring bounds it, and none may re-execute either way.
	subs, ok, err := Split(spec, split)
	if err != nil || !ok {
		t.Fatalf("split: ok=%v err=%v", ok, err)
	}
	moved := 0
	for _, sub := range subs {
		if front3.coord.Ring().Owner(sub.Key) != front4.coord.Ring().Owner(sub.Key) {
			moved++
		}
	}

	start = time.Now()
	second := runCluster(t, front4, spec)
	warmElapsed := time.Since(start)

	if !bytes.Equal(first, second) {
		t.Error("resharded resubmission produced different bytes")
	}
	if n := sumExecutions(nodes); n != execAfterFirst {
		t.Errorf("reshard re-executed: %d executions after resubmission, want %d", n, execAfterFirst)
	}
	var peerHits int64
	for _, n := range nodes {
		peerHits += n.metrics.Counter(obs.MetricPeerCacheHits).Value()
	}
	if moved > 0 && peerHits == 0 {
		t.Errorf("%d sub-jobs changed owner but no peer-cache hit was recorded", moved)
	}
	t.Logf("reshard: cold %v, warm %v (%d/%d sub-jobs moved, %v peer hits, 0 re-executions)",
		coldElapsed, warmElapsed, moved, split, peerHits)
}

// TestClusterWallClockTable measures the same fuzz campaign on 1-, 2-
// and 3-node clusters for the EXPERIMENTS.md scaling table. Timing is
// machine-dependent, so it only logs; run it explicitly with
// CROSSD_WALLCLOCK=1 go test ./internal/cluster -run WallClock -v
func TestClusterWallClockTable(t *testing.T) {
	if os.Getenv("CROSSD_WALLCLOCK") == "" {
		t.Skip("set CROSSD_WALLCLOCK=1 to measure the scaling table")
	}
	spec := serve.JobSpec{Kind: serve.KindFuzz, Seed: 42, N: 6000, Parallel: 2}
	var base time.Duration
	for _, n := range []int{1, 2, 3} {
		_, front := newCluster(t, n, 6)
		start := time.Now()
		runCluster(t, front, spec)
		elapsed := time.Since(start)
		if n == 1 {
			base = elapsed
		}
		t.Logf("fuzz seed=%d n=%d on %d node(s): %v (%.2fx)", spec.Seed, spec.N, n, elapsed.Round(time.Millisecond), float64(base)/float64(elapsed))
	}
}

// gatedRunner blocks every execution until its gate opens, so a test
// can kill the node while a sub-job is provably in flight.
type gatedRunner struct {
	inner   serve.Runner
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedRunner) Execute(ctx context.Context, spec serve.JobSpec, onFailure func(core.Failure)) (*serve.JobResult, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.gate:
		return g.inner.Execute(ctx, spec, onFailure)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// The fault satellite: kill a worker mid-campaign. The coordinator
// marks it down, requeues its claimed and queued sub-jobs onto the
// survivors, and the merged report is byte-identical; nothing already
// finished executes twice.
func TestClusterWorkerDeathResteal(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindFuzz, Seed: 5, N: 60, Parallel: 2}
	direct := runDirect(t, spec)

	a := newTestNode(t, "node-a", nil)
	b := newTestNode(t, "node-b", nil)
	cExec := &serve.Executor{}
	gate := &gatedRunner{inner: cExec, entered: make(chan struct{}, 16), gate: make(chan struct{})}
	defer close(gate.gate) // unblock node-c's scheduler for a clean drain
	c := newTestNode(t, "node-c", gate)
	c.exec = cExec
	clients := connectTier(a, b, c)
	front := newFrontend(t, clients, 6)

	type outcome struct {
		res *serve.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		res, err := front.client.SubmitWait(ctx, spec)
		done <- outcome{res, err}
	}()

	// Wait until node-c has a sub-job in flight, then kill it.
	select {
	case <-gate.entered:
	case <-time.After(60 * time.Second):
		t.Fatal("node-c never received a sub-job")
	}
	c.srv.CloseClientConnections()
	c.srv.Close()

	out := <-done
	if out.err != nil {
		t.Fatalf("campaign failed after worker death: %v", out.err)
	}
	if got := resultBytes(t, out.res); !bytes.Equal(got, direct) {
		t.Error("post-failover merged result differs from single-node run")
	}
	// The dead node executed nothing (its one claimed sub-job was still
	// gated), and the survivors ran each sub-job exactly once — the
	// requeued one included, with no double execution of anything the
	// cache already held.
	if n := cExec.Executions(); n != 0 {
		t.Errorf("dead node executed %d sub-jobs", n)
	}
	if n := a.exec.Executions() + b.exec.Executions(); n != 6 {
		t.Errorf("survivors executed %d sub-jobs, want 6 (each exactly once)", n)
	}

	var sawDown, sawRequeue bool
	for _, ev := range front.recorder.Events() {
		switch ev.Type {
		case obs.EvNodeDown:
			sawDown = true
		case obs.EvSubJobRequeued:
			sawRequeue = true
		}
	}
	if !sawDown || !sawRequeue {
		t.Errorf("flight recorder missing failover events: node_down=%v requeued=%v", sawDown, sawRequeue)
	}
}

// /cluster on the coordinator aggregates every node's /metrics plus
// the coordinator's own registry, with per-node liveness markers.
func TestClusterMetricsAggregation(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindFuzz, Seed: 5, N: 60, Parallel: 2}
	nodes, front := newCluster(t, 3, 6)
	runCluster(t, front, spec)

	resp, err := http.Get(front.srv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, n := range nodes {
		if !strings.Contains(text, fmt.Sprintf("crossd_node_up{node=%q} 1", n.name)) {
			t.Errorf("/cluster missing liveness for %s", n.name)
		}
	}
	if !strings.Contains(text, `crossd_node_up{node="coordinator"} 1`) {
		t.Error("/cluster missing the coordinator's own liveness")
	}

	series, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("aggregated output is not parseable: %v", err)
	}
	if got := series[`crossd_jobs_submitted_total{kind="fuzz"}`]; got < 6 {
		t.Errorf("aggregated fuzz submissions = %v, want >= 6 (one per sub-job)", got)
	}
	if got := series[`crossd_subjobs_dispatched_total{node="node-a"}`] +
		series[`crossd_subjobs_dispatched_total{node="node-b"}`] +
		series[`crossd_subjobs_dispatched_total{node="node-c"}`]; got != 6 {
		t.Errorf("dispatched sub-jobs across nodes = %v, want 6", got)
	}
}
