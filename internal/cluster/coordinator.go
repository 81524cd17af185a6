package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster/chash"
	"repro/internal/cluster/merge"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Options configure a Coordinator.
type Options struct {
	// Nodes maps worker names (the ring identities) to their API
	// clients. Required, non-empty.
	Nodes map[string]*NodeClient
	// SplitFactor is the fuzz-campaign fan-out (how many contiguous
	// seed ranges a campaign splits into); 0 = the node count.
	SplitFactor int
	// Metrics receives the node-labeled fan-out counters and the
	// split/fanout/merge stage histograms; Recorder the per-sub-job
	// dispatch/steal/requeue events. Both optional.
	Metrics  *obs.Registry
	Recorder *obs.Recorder
}

// Coordinator fans a job out across the cluster: it splits the spec
// into sub-jobs, dispatches each to its cache-affinity owner (the
// sub-job key's ring owner), lets idle nodes steal queued work from the
// longest backlog, requeues the work of a node that dies mid-campaign,
// and merges the sub-results into the parent result — byte-identical
// to a single node running the unsplit job.
//
// Coordinator implements serve.Runner, so a coordinator crossd is an
// ordinary crossd whose "executor" is the cluster: admission control,
// parent-level caching, and coalescing all come from the same
// Scheduler the workers run.
type Coordinator struct {
	opts  Options
	ring  *chash.Ring
	order []string // node names, sorted, for deterministic iteration
}

// New builds a coordinator over the node set.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one node")
	}
	names := make([]string, 0, len(opts.Nodes))
	for name, c := range opts.Nodes {
		if c == nil {
			return nil, fmt.Errorf("cluster: node %q has no client", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return &Coordinator{opts: opts, ring: chash.New(names...), order: names}, nil
}

// Ring exposes the coordinator's hash ring (the same ring the workers'
// peer-cache tier should be connected to).
func (c *Coordinator) Ring() *chash.Ring { return c.ring }

func (c *Coordinator) splitFactor() int {
	if c.opts.SplitFactor > 0 {
		return c.opts.SplitFactor
	}
	return len(c.order)
}

// count and stage record to the coordinator's registry; a nil registry
// does nothing.
func (c *Coordinator) count(name string, labels ...string) {
	c.opts.Metrics.Counter(name, labels...).Inc()
}

func (c *Coordinator) stage(stage string, d time.Duration) {
	c.opts.Metrics.Histogram(obs.MetricStageDurationMs, nil, "stage", stage).
		ObserveExemplar(float64(d)/float64(time.Millisecond), "")
}

// Execute implements serve.Runner. Sub-job oracle failures surface in
// the workers' own streams; the coordinator's stream carries the
// terminal event only.
func (c *Coordinator) Execute(ctx context.Context, spec serve.JobSpec, onFailure func(core.Failure)) (*serve.JobResult, error) {
	splitStart := time.Now()
	subs, ok, err := Split(spec, c.splitFactor())
	c.stage(obs.StageSplit, time.Since(splitStart))
	if err != nil {
		return nil, err
	}
	if !ok {
		// Unsplittable: run whole on the parent key's owner (with
		// failover through the ring preference list).
		key, err := spec.CacheKey()
		if err != nil {
			return nil, err
		}
		subs = []SubJob{{Spec: spec, Key: key}}
	}

	fanStart := time.Now()
	results, err := c.fanout(ctx, subs)
	c.stage(obs.StageFanout, time.Since(fanStart))
	if err != nil {
		return nil, err
	}
	if !ok {
		return results[0], nil
	}

	mergeStart := time.Now()
	merged, err := Merge(spec, results)
	c.stage(obs.StageMerge, time.Since(mergeStart))
	return merged, err
}

// Merge reassembles sub-results (in Split's sub-job order) into the
// parent result. The heavy lifting lives in cluster/merge, which
// crossvet holds to the determinism contract; this is the kind
// dispatch, the only branch on the job kind outside internal/serve.
func Merge(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	switch spec.Kind {
	case serve.KindCorpus:
		return merge.Corpus(spec, subs)
	case serve.KindFuzz:
		return merge.Fuzz(spec, subs)
	case serve.KindSkew:
		return merge.Skew(spec, subs)
	case serve.KindPartition:
		return merge.Partition(spec, subs)
	}
	return nil, fmt.Errorf("cluster: kind %q does not merge", spec.Kind)
}

// fanout dispatches the sub-jobs and blocks until every result is in,
// a sub-job fails at the job level, or no node is left alive.
func (c *Coordinator) fanout(ctx context.Context, subs []SubJob) ([]*serve.JobResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	d := &dispatch{
		coord:   c,
		subs:    subs,
		results: make([]*serve.JobResult, len(subs)),
		queues:  map[string][]int{},
		alive:   map[string]bool{},
	}
	d.cond = sync.NewCond(&d.mu)
	for _, name := range c.order {
		d.alive[name] = true
	}
	for i, sub := range subs {
		owner := c.ring.Owner(sub.Key)
		d.queues[owner] = append(d.queues[owner], i)
		c.count(obs.MetricSubJobsDispatch, "node", owner)
		c.opts.Recorder.Record(obs.Event{Type: obs.EvSubJobDispatched, Key: sub.Key, Detail: owner})
	}

	var wg sync.WaitGroup
	for _, name := range c.order {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			d.nodeLoop(ctx, node)
		}(name)
	}
	// Wake every cond waiter on cancellation (job timeout or drain);
	// fanout's deferred cancel reaps this goroutine.
	go func() {
		<-ctx.Done()
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}()

	d.mu.Lock()
	for d.done < len(subs) && d.failed == nil && d.anyAlive() && ctx.Err() == nil {
		d.cond.Wait()
	}
	failed, done := d.failed, d.done
	d.mu.Unlock()
	cancel() // release loops blocked on held results
	wg.Wait()

	switch {
	case failed != nil:
		return nil, failed
	case done < len(subs):
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("cluster: all nodes down before campaign finished")
	}
	return d.results, nil
}

// dispatch is the fan-out state: per-node work queues, liveness, and
// the result slots, all guarded by mu.
type dispatch struct {
	coord *Coordinator
	subs  []SubJob

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]int
	alive   map[string]bool
	done    int
	results []*serve.JobResult
	failed  error
}

func (d *dispatch) anyAlive() bool {
	for _, up := range d.alive {
		if up {
			return true
		}
	}
	return false
}

// next claims the node's next sub-job under mu: its own queue front, or
// — work-stealing — the back of the longest other live backlog.
func (d *dispatch) next(node string) (idx int, stolen bool, ok bool) {
	if q := d.queues[node]; len(q) > 0 {
		idx = q[0]
		d.queues[node] = q[1:]
		return idx, false, true
	}
	victim := ""
	for _, name := range d.coord.order {
		if name == node || len(d.queues[name]) == 0 {
			continue
		}
		if victim == "" || len(d.queues[name]) > len(d.queues[victim]) {
			victim = name
		}
	}
	if victim == "" {
		return 0, false, false
	}
	q := d.queues[victim]
	idx = q[len(q)-1]
	d.queues[victim] = q[:len(q)-1]
	return idx, true, true
}

// requeue redistributes a dead node's claimed and queued sub-jobs to
// the live nodes, each to the first live entry of its key's preference
// list (keeping what cache affinity is left).
func (d *dispatch) requeue(node string, claimed []int) {
	pending := append(claimed, d.queues[node]...)
	d.queues[node] = nil
	for _, idx := range pending {
		target := ""
		for _, name := range d.coord.ring.Preference(d.subs[idx].Key) {
			if d.alive[name] {
				target = name
				break
			}
		}
		if target == "" {
			continue // no nodes left; the wait loop will notice
		}
		d.queues[target] = append(d.queues[target], idx)
		d.coord.count(obs.MetricSubJobsRequeued, "node", node)
		d.coord.opts.Recorder.Record(obs.Event{Type: obs.EvSubJobRequeued, Key: d.subs[idx].Key, Detail: node + " -> " + target})
	}
}

// nodeLoop executes sub-jobs on one node until the fan-out completes,
// the node dies, or a sub-job fails for real.
func (d *dispatch) nodeLoop(ctx context.Context, node string) {
	client := d.coord.opts.Nodes[node]
	for {
		d.mu.Lock()
		var idx int
		var stolen, ok bool
		for {
			if d.failed != nil || !d.alive[node] || d.done == len(d.subs) || ctx.Err() != nil {
				d.mu.Unlock()
				return
			}
			idx, stolen, ok = d.next(node)
			if ok {
				break
			}
			d.cond.Wait()
		}
		d.mu.Unlock()

		sub := d.subs[idx]
		if stolen {
			d.coord.count(obs.MetricSubJobsStolen, "node", node)
			d.coord.opts.Recorder.Record(obs.Event{Type: obs.EvSubJobStolen, Key: sub.Key, Detail: node})
		}
		res, err := client.SubmitWait(ctx, sub.Spec)

		d.mu.Lock()
		switch {
		case err == nil:
			d.results[idx] = res
			d.done++
			d.coord.opts.Recorder.Record(obs.Event{Type: obs.EvSubJobDone, Key: sub.Key, Detail: node})
		case ctx.Err() != nil:
			// The fan-out is being torn down; not a verdict on the node.
			d.mu.Unlock()
			return
		case IsNodeDown(err):
			d.alive[node] = false
			d.coord.opts.Recorder.Record(obs.Event{Type: obs.EvNodeDown, Key: sub.Key, Detail: node + ": " + err.Error()})
			d.requeue(node, []int{idx})
			d.cond.Broadcast()
			d.mu.Unlock()
			return
		default:
			if d.failed == nil {
				d.failed = fmt.Errorf("cluster: sub-job on %s: %w", node, err)
			}
		}
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}
