package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/serve"
)

// node is one in-process crossd wired exactly as cmd/crossd's defaults:
// 2 workers, queue 16, a 10-minute job timeout, a 128-entry memory-only
// cache and the shipped observability, served over HTTP on loopback.
type node struct {
	obs    shippedObs
	sched  *serve.Scheduler
	srv    *http.Server
	url    string
	served chan error
}

// startNode serves runner (a plain executor when nil) with the given
// peer-cache tier and /cluster view (both may be nil).
func startNode(o shippedObs, runner serve.Runner, peers serve.PeerCache, clusterView http.Handler) (*node, error) {
	cache, err := serve.NewCache(128, "")
	if err != nil {
		return nil, err
	}
	cache.SetRecorder(o.recorder)
	if runner == nil {
		runner = &serve.Executor{Metrics: o.metrics, Tracer: o.tracer, Recorder: o.recorder}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:    2,
		QueueDepth: 16,
		JobTimeout: 10 * time.Minute,
		Cache:      cache,
		Executor:   runner,
		Metrics:    o.metrics,
		Tracer:     o.tracer,
		Recorder:   o.recorder,
		Peers:      peers,
	})
	n := &node{
		obs:   o,
		sched: sched,
		srv: &http.Server{Handler: serve.NewServer(sched, serve.ServerOptions{
			Metrics:  o.metrics,
			Recorder: o.recorder,
			Version:  buildinfo.Get().String(),
			Cluster:  clusterView,
		})},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// close drains the scheduler (cancelling what is still running after a
// minute), shuts the server down and waits for it to stop serving.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	n.sched.Drain(ctx)
	n.srv.Shutdown(ctx)
	<-n.served
}

// client submits jobs the way a user does, as POST /api/v1/jobs, over a
// single keep-alive connection.
type client struct {
	http *http.Client
	tr   *http.Transport
	url  string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, url: url}
}

// connect opens the keep-alive connection (a /healthz round trip).
func (c *client) connect() error {
	resp, err := c.http.Get(c.url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: http %d", resp.StatusCode)
	}
	return nil
}

// submit posts the spec and returns the admitted job's status and the
// HTTP code.
func (c *client) submit(spec serve.JobSpec) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, 0, err
	}
	resp, err := c.http.Post(c.url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, resp.StatusCode, fmt.Errorf("submit: http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return st, resp.StatusCode, json.Unmarshal(data, &st)
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// watch follows a job in-process through Subscribe until it ends and
// returns when its first event and its end were seen.
func watch(sched *serve.Scheduler, id string) (first, done time.Time, err error) {
	job, ok := sched.Job(id)
	if !ok {
		return first, done, fmt.Errorf("job %s unknown to the scheduler", id)
	}
	history, live := job.Subscribe()
	if len(history) > 0 {
		first = time.Now()
	}
	for range live {
		if first.IsZero() {
			first = time.Now()
		}
	}
	<-job.Done()
	done = time.Now()
	if first.IsZero() {
		first = done
	}
	return first, done, nil
}

// jobResult decodes a finished job's stored result.
func jobResult(sched *serve.Scheduler, id string) (*serve.JobResult, error) {
	job, ok := sched.Job(id)
	if !ok {
		return nil, fmt.Errorf("job %s unknown to the scheduler", id)
	}
	data, done := job.Result()
	if !done {
		st := job.Status()
		return nil, fmt.Errorf("job %s is %s: %s", id, st.State, st.Error)
	}
	var res serve.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// stageLayers stores the scheduler's four pipeline stages, read from
// the crossd_stage_duration_ms histograms the shipped config records, as
// mean milliseconds and as shares of the summed job latency.
func stageLayers(m *obs.Registry, latencyMs float64, layers map[string]float64) {
	for _, stage := range []string{obs.StageQueueWait, obs.StageCacheProbe, obs.StageRun, obs.StageEncode} {
		h := m.Histogram(obs.MetricStageDurationMs, nil, "stage", stage)
		layers["serve."+stage+"_ms"] = ratio(h.Sum(), float64(h.Count()))
		layers["serve."+stage+"_share"] = ratio(h.Sum(), latencyMs)
	}
	hits := m.Counter(obs.MetricCacheHits).Value()
	misses := m.Counter(obs.MetricCacheMisses).Value()
	layers["serve.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
}

// cacheKeyUs is the mean time to content-address a spec.
func cacheKeyUs(specs []serve.JobSpec) (float64, error) {
	const reps = 20
	t := time.Now()
	for i := 0; i < reps; i++ {
		for _, s := range specs {
			if _, err := s.CacheKey(); err != nil {
				return 0, err
			}
		}
	}
	return ratio(float64(time.Since(t))/float64(time.Microsecond), float64(reps*len(specs))), nil
}
