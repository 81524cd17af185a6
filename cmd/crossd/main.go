// Command crossd is the long-running differential-testing service: it
// accepts cross-system test jobs over HTTP — Figure-6 corpus runs,
// -conf configuration sweeps, fuzz campaigns identified by (seed, n),
// and version-skew matrix runs over writer->reader version pairs —
// executes them on a shared bounded worker pool over the §8 harness,
// and content-addresses the results. A job's spec is
// hashed; completed reports are stored in an LRU + disk cache, so an
// identical submission is served without re-executing a single case.
//
// Usage:
//
//	crossd [-addr :8731] [-workers N] [-queue N] [-job-timeout DUR]
//	       [-cache-entries N] [-cache-dir DIR] [-drain-grace DUR]
//
// Cluster mode shards crossd across nodes. A coordinator fronts a set
// of workers, splits each job (corpus by family, fuzz by seed range,
// skew by pair, partition by scenario), fans the sub-jobs out with
// work-stealing, and merges the sub-results byte-identically to a
// single-node run:
//
//	crossd -cluster a=http://hostA:8731,b=http://hostB:8731 [-split N]
//
// A worker joins the distributed cache tier by naming itself and the
// membership (peers probe each other's caches before re-executing, so
// a resharded resubmission runs nothing):
//
//	crossd -node a -peers a=http://hostA:8731,b=http://hostB:8731
//
// API:
//
//	POST /api/v1/jobs             submit a job spec (202 accepted,
//	                              200 cache hit, 429 queue full + Retry-After,
//	                              503 draining)
//	GET  /api/v1/jobs             list jobs
//	GET  /api/v1/jobs/{id}        job status
//	GET  /api/v1/jobs/{id}/result completed report, held until the job ends
//	                              (byte-identical on cache hits; 409 failed or
//	                              cancelled; 202 + status after a 10 s hold)
//	GET  /api/v1/jobs/{id}/stream NDJSON failure stream + terminal event
//	GET  /api/v1/cache/{key}      raw cached result (the peer-fetch endpoint)
//	PUT  /api/v1/cache/{key}      peer write-through (validated against the key)
//	GET  /cluster                 cluster-wide aggregated metrics (coordinator)
//	GET  /metrics                 Prometheus text exposition (stage
//	                              histograms carry exemplar trace IDs)
//	GET  /healthz                 readiness + build version (503 while draining)
//	GET  /debug/events            flight-recorder replay (?job=ID, ?n=N)
//	GET  /debug/pprof/...         live profiling (net/http/pprof)
//
// On SIGTERM/SIGINT crossd stops admitting jobs, lets queued and
// in-flight jobs finish (up to -drain-grace, then cancels them), and
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/cluster/chash"
	"repro/internal/obs"
	"repro/internal/serve"
)

// config is the flag surface of one crossd process.
type config struct {
	addr         string
	workers      int
	queue        int
	jobTimeout   time.Duration
	cacheEntries int
	cacheDir     string
	drainGrace   time.Duration
	events       int
	spanCap      int

	// Cluster mode: clusterSpec makes this a coordinator over the
	// listed workers; nodeName+peersSpec join a worker to the
	// distributed cache tier; split overrides the fuzz fan-out.
	clusterSpec string
	nodeName    string
	peersSpec   string
	split       int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8731", "listen address")
	flag.IntVar(&cfg.workers, "workers", 2, "concurrent job executors")
	flag.IntVar(&cfg.queue, "queue", 16, "admission queue depth (submissions past it get 429)")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 10*time.Minute, "per-job execution bound (0 = none)")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", 128, "in-memory result cache entries (LRU)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "spill cached results to this directory (survives restarts)")
	flag.DurationVar(&cfg.drainGrace, "drain-grace", 30*time.Second, "how long to let in-flight jobs finish on shutdown")
	flag.IntVar(&cfg.events, "events", 1024, "flight-recorder ring size (0 disables /debug/events)")
	flag.IntVar(&cfg.spanCap, "span-cap", 4096, "retained trace spans (0 disables tracing)")
	flag.StringVar(&cfg.clusterSpec, "cluster", "", "coordinate a worker cluster: name=url[,name=url...]")
	flag.StringVar(&cfg.nodeName, "node", "", "this worker's cluster node name (joins the peer cache tier with -peers)")
	flag.StringVar(&cfg.peersSpec, "peers", "", "cluster membership for the peer cache tier: name=url[,name=url...]")
	flag.IntVar(&cfg.split, "split", 0, "fuzz-campaign split factor in cluster mode (0 = node count)")
	cli.Parse("crossd")

	if err := run(cfg); err != nil {
		cli.Fatal(err)
	}
}

func run(cfg config) error {
	cache, err := serve.NewCache(cfg.cacheEntries, cfg.cacheDir)
	if err != nil {
		return err
	}
	metrics := obs.NewRegistry()
	// Tracing and the flight recorder stay on by default: the tracer is
	// capped (oldest spans drop) and the recorder is a fixed ring, so
	// both are safe to leave running forever.
	var tracer *obs.Tracer
	if cfg.spanCap > 0 {
		tracer = obs.NewTracer(obs.WallClock{})
		tracer.SetCap(cfg.spanCap)
	}
	var recorder *obs.Recorder
	if cfg.events > 0 {
		recorder = obs.NewRecorder(cfg.events)
	}
	cache.SetRecorder(recorder)

	var runner serve.Runner = &serve.Executor{Metrics: metrics, Tracer: tracer, Recorder: recorder}
	var clusterHandler http.Handler
	var peers serve.PeerCache
	mode := "single-node"
	switch {
	case cfg.clusterSpec != "":
		nodes, err := cluster.ParseNodes(cfg.clusterSpec)
		if err != nil {
			return err
		}
		coord, err := cluster.New(cluster.Options{
			Nodes:       nodes,
			SplitFactor: cfg.split,
			Metrics:     metrics,
			Recorder:    recorder,
		})
		if err != nil {
			return err
		}
		runner = coord
		clusterHandler = &cluster.MetricsHandler{Nodes: nodes, Self: metrics, SelfName: "coordinator"}
		mode = fmt.Sprintf("coordinator over %d nodes", len(nodes))
	case cfg.nodeName != "":
		if cfg.peersSpec == "" {
			return errors.New("-node requires -peers (the cluster membership)")
		}
		nodes, err := cluster.ParseNodes(cfg.peersSpec)
		if err != nil {
			return err
		}
		if _, ok := nodes[cfg.nodeName]; !ok {
			return fmt.Errorf("-node %s is not in -peers", cfg.nodeName)
		}
		names := make([]string, 0, len(nodes))
		for name := range nodes {
			names = append(names, name)
		}
		p := cluster.NewPeers(cfg.nodeName)
		p.Connect(chash.New(names...), nodes)
		peers = p
		mode = fmt.Sprintf("worker %s in a %d-node cache tier", cfg.nodeName, len(nodes))
	}

	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		JobTimeout: cfg.jobTimeout,
		Cache:      cache,
		Executor:   runner,
		Metrics:    metrics,
		Tracer:     tracer,
		Recorder:   recorder,
		Peers:      peers,
	})
	srv := &http.Server{Addr: cfg.addr, Handler: serve.NewServer(sched, serve.ServerOptions{
		Metrics:  metrics,
		Recorder: recorder,
		Version:  buildinfo.Get().String(),
		Cluster:  clusterHandler,
	})}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("crossd: listening on %s (workers=%d queue=%d, %s)\n", cfg.addr, cfg.workers, cfg.queue, mode)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admission first (new submissions get 503
	// from the still-listening server), let in-flight jobs finish, then
	// close the listener.
	fmt.Println("crossd: draining (in-flight jobs will finish)")
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	sched.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("crossd: drained, exiting")
	return nil
}
