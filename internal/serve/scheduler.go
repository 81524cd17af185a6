package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/obs"
)

// systemCrossd tags the service's own spans: the scheduler pipeline is
// a control-plane hop above the per-case harness spans.
const systemCrossd csi.System = "crossd"

// Admission errors. The HTTP layer maps ErrQueueFull and ErrThrottled
// to 429 + Retry-After and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: job queue full")
	ErrThrottled = errors.New("serve: admission rate exceeded, retry later")
	ErrDraining  = errors.New("serve: server is draining, not accepting jobs")
)

// Runner executes one job spec under a context. *Executor is the
// production implementation; a cluster coordinator is another (it
// "executes" a large job by splitting it across worker nodes).
type Runner interface {
	Execute(ctx context.Context, spec JobSpec, onFailure func(core.Failure)) (*JobResult, error)
}

// PeerCache is the distributed cache tier a clustered scheduler probes
// before executing: Fetch asks the peers that could own the key for a
// finished result (marshaled JobResult bytes), Offer pushes a locally
// computed result to the key's owner. Both are best-effort — a tier
// that is down degrades to local execution, never to an error.
type PeerCache interface {
	Fetch(ctx context.Context, key string) ([]byte, bool)
	Offer(key string, data []byte)
}

// Job is one admitted submission. All mutable state is guarded by mu;
// Done is closed exactly once when the job reaches a terminal state.
type Job struct {
	ID   string
	Key  string
	Spec JobSpec

	// span is the job's root span (nil when tracing is off); trace is
	// its hex ID, stamped onto every stream event and stage exemplar.
	span  *obs.Span
	trace string

	mu       sync.Mutex
	state    string
	err      string
	cacheHit bool
	queued   time.Time
	started  time.Time
	finished time.Time
	result   []byte // marshaled JobResult, exactly what /result serves

	events     []StreamEvent      // full history, so late stream subscribers replay
	subs       []chan StreamEvent // live subscribers
	subsClosed bool               // the terminal event is in events; no more subscribers

	cancel context.CancelFunc
	done   chan struct{}
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		Key:      j.Key,
		Kind:     j.Spec.Kind,
		State:    j.state,
		CacheHit: j.cacheHit,
		Error:    j.err,
	}
	if !j.queued.IsZero() {
		st.Queued = j.queued.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		from := j.started
		if from.IsZero() {
			from = j.queued
		}
		st.Duration = float64(j.finished.Sub(from)) / float64(time.Millisecond)
	}
	return st
}

// Result returns the marshaled JobResult bytes once the job is done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Subscribe returns the event history so far plus a channel carrying
// subsequent events; the channel is closed after the terminal event.
// A finished job returns its full history and a closed channel. The
// channel may skip events when its reader falls behind (see emit); a
// gap in Seq shows where.
func (j *Job) Subscribe() ([]StreamEvent, <-chan StreamEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history := append([]StreamEvent(nil), j.events...)
	ch := make(chan StreamEvent, 64)
	if j.subsClosed {
		close(ch)
		return history, ch
	}
	j.subs = append(j.subs, ch)
	return history, ch
}

// eventsFrom returns the recorded events whose Seq is at least seq.
func (j *Job) eventsFrom(seq int) []StreamEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq >= len(j.events) {
		return nil
	}
	return append([]StreamEvent(nil), j.events[seq:]...)
}

// emit appends an event and fans it out. Slow subscribers lose events
// (non-blocking send) rather than stalling the worker; the history
// keeps every event, so a reader that sees a gap in Seq refills it
// from there (eventsFrom).
func (j *Job) emit(ev StreamEvent) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	ev.Job = j.ID
	ev.Trace = j.trace
	j.events = append(j.events, ev)
	subs := append([]chan StreamEvent(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (j *Job) closeSubs() {
	j.mu.Lock()
	subs := j.subs
	j.subs = nil
	j.subsClosed = true
	j.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// SchedulerOptions configure the worker pool.
type SchedulerOptions struct {
	// Workers is the number of concurrent job executors (minimum 1).
	// Each job additionally fans out over its own Parallel harness
	// workers, so keep Workers modest.
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started jobs;
	// submissions past it are rejected with ErrQueueFull (the 429
	// backpressure signal). Minimum 1.
	QueueDepth int
	// JobTimeout bounds each job's execution (0 = none).
	JobTimeout time.Duration
	// AdmitRatePerSec, when > 0, enables token-bucket admission control
	// ahead of the cache probe: sustained submission above this rate is
	// rejected with ErrThrottled before the scheduler does any cache or
	// disk work. The queue alone bounds how much work waits; the bucket
	// bounds how fast work arrives — the difference matters under a
	// retry storm, where a freshly-drained queue refills instantly.
	AdmitRatePerSec float64
	// AdmitBurst is the bucket size (defaults to AdmitRatePerSec).
	AdmitBurst float64
	// Cache is the content-addressed result cache (required).
	Cache *Cache
	// Executor runs the jobs (required; shared across workers). The
	// production implementation is *Executor; tests substitute
	// deterministic runners.
	Executor Runner
	// Metrics, when non-nil, receives the service-level gauges and
	// counters (queue depth, in-flight jobs, cache hit ratio, ...).
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one root span per job; its ID is
	// the trace_id carried by stream events and stage-histogram
	// exemplars. Long-running deployments should SetCap it.
	Tracer *obs.Tracer
	// Recorder, when non-nil, is the flight recorder fed with
	// admission, cache, drain, and oracle events (/debug/events).
	Recorder *obs.Recorder
	// Peers, when non-nil, is the distributed cache tier: after a local
	// cache miss, a worker probes the key's peer owners before running
	// anything, and offers locally computed results back to the owner.
	// This is what makes a resharded resubmission free cluster-wide —
	// the sub-job keys are location-independent content addresses.
	Peers PeerCache
}

// Scheduler owns the job table and the bounded worker pool.
type Scheduler struct {
	opts SchedulerOptions

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job // by ID
	byKey    map[string]*Job // queued/running jobs, for coalescing
	queue    chan *Job

	// Admission token bucket (guarded by mu; active when AdmitRatePerSec > 0).
	admitTokens float64
	admitLast   time.Time

	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup
}

// NewScheduler starts the worker pool.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:       opts,
		jobs:       map[string]*Job{},
		byKey:      map[string]*Job{},
		queue:      make(chan *Job, opts.QueueDepth),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit admits a job. The three fast paths never execute anything:
// an invalid spec is rejected, a cached key is answered from the cache
// (as an immediately-done job), and a spec equal to a queued or
// running job coalesces onto it. Otherwise the job is enqueued, or
// rejected with ErrQueueFull when the queue is at depth.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	key, err := spec.CacheKey()
	if err != nil {
		s.count(obs.MetricJobsRejected, "reason", "invalid")
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobRejected, Detail: "invalid: " + err.Error()})
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.count(obs.MetricJobsRejected, "reason", "draining")
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobRejected, Key: key, Detail: "draining"})
		return nil, ErrDraining
	}
	if live, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		s.count(obs.MetricJobsSubmitted, "kind", spec.Kind)
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobCoalesced, Job: live.ID, Key: key, Trace: live.trace})
		return live, nil
	}
	// Rate admission after coalescing (a coalesced submission costs
	// nothing) but before the cache probe (shedding must stay cheaper
	// than the work it sheds, and the probe can touch disk).
	if !s.admitLocked(time.Now()) {
		s.mu.Unlock()
		s.count(obs.MetricJobsRejected, "reason", "throttled")
		s.count(obs.MetricAdmissionRejections, "reason", "throttled")
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobRejected, Key: key, Detail: "throttled"})
		return nil, ErrThrottled
	}
	// Cache probe under the admission lock: the lookup is memory/disk
	// only and keeps two racing submissions of a cold key from both
	// executing.
	probeStart := time.Now()
	data, hit := s.opts.Cache.Get(key)
	probe := time.Since(probeStart)
	if hit {
		job := s.newJobLocked(spec, key)
		job.cacheHit = true
		job.state = StateDone
		job.finished = time.Now()
		job.result = data
		close(job.done)
		s.mu.Unlock()
		s.count(obs.MetricJobsSubmitted, "kind", spec.Kind)
		s.count(obs.MetricCacheHits)
		s.opts.Metrics.SetHitRatio()
		s.stage(obs.StageCacheProbe, probe, job.trace)
		s.opts.Recorder.Record(obs.Event{Type: obs.EvCacheHit, Job: job.ID, Key: key, Trace: job.trace})
		job.span.Set("cache", "hit").End()
		job.emit(StreamEvent{Type: StateDone, CacheHit: true, ReportSHA: reportSHA(data)})
		job.closeSubs()
		return job, nil
	}
	job := s.newJobLocked(spec, key) // state starts queued
	// Register for coalescing before the send: a fast worker may pick
	// the job up (and clean byKey) the instant it lands on the queue.
	s.byKey[key] = job
	select {
	case s.queue <- job:
	default:
		delete(s.jobs, job.ID)
		delete(s.byKey, key)
		depth := len(s.queue)
		s.mu.Unlock()
		s.count(obs.MetricJobsRejected, "reason", "queue_full")
		s.count(obs.MetricAdmissionRejections, "reason", "queue_full")
		// Keep the gauge honest at the moment clients are being told to
		// back off: rejection time is exactly when dashboards look at it.
		s.gauge(obs.MetricQueueDepth, float64(depth))
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobRejected, Key: key, Trace: job.trace, Detail: "queue_full"})
		job.span.Fail(ErrQueueFull).End()
		return nil, ErrQueueFull
	}
	depth := len(s.queue)
	s.mu.Unlock()
	s.count(obs.MetricJobsSubmitted, "kind", spec.Kind)
	s.count(obs.MetricCacheMisses)
	s.opts.Metrics.SetHitRatio()
	s.stage(obs.StageCacheProbe, probe, job.trace)
	s.gauge(obs.MetricQueueDepth, float64(depth))
	s.opts.Recorder.Record(obs.Event{Type: obs.EvCacheMiss, Job: job.ID, Key: key, Trace: job.trace})
	s.opts.Recorder.Record(obs.Event{Type: obs.EvJobAdmitted, Job: job.ID, Key: key, Trace: job.trace, Detail: spec.Kind})
	return job, nil
}

func (s *Scheduler) newJobLocked(spec JobSpec, key string) *Job {
	s.seq++
	job := &Job{
		ID:     fmt.Sprintf("job-%06d-%s", s.seq, key[:8]),
		Key:    key,
		Spec:   spec,
		state:  StateQueued,
		queued: time.Now(),
		done:   make(chan struct{}),
	}
	job.span = s.opts.Tracer.Span(nil, systemCrossd, csi.ControlPlane, "job/"+spec.Kind)
	job.span.Set("job", job.ID).Set("key", key)
	job.trace = job.span.TraceID()
	s.jobs[job.ID] = job
	return job
}

// admitLocked spends one admission token, refilling the bucket from
// elapsed wall time first. Caller holds s.mu. Always true when rate
// admission is off.
func (s *Scheduler) admitLocked(now time.Time) bool {
	rate := s.opts.AdmitRatePerSec
	if rate <= 0 {
		return true
	}
	burst := s.opts.AdmitBurst
	if burst <= 0 {
		burst = rate
	}
	if s.admitLast.IsZero() {
		s.admitTokens = burst
	} else {
		s.admitTokens += now.Sub(s.admitLast).Seconds() * rate
		if s.admitTokens > burst {
			s.admitTokens = burst
		}
	}
	s.admitLast = now
	if s.admitTokens < 1 {
		return false
	}
	s.admitTokens--
	return true
}

// RetryAfterSeconds derives the 429 backpressure hint from the current
// queue depth: roughly how long the backlog ahead of a retry needs to
// make room, at about one second of service per queued job per worker,
// clamped to [1, 60]. A full queue therefore tells clients to wait
// longer than a nearly-empty one — the signal a well-behaved retry
// policy (and the loadgen engine's honoring policies) feeds into its
// backoff floor.
func (s *Scheduler) RetryAfterSeconds() int {
	workers := s.opts.Workers
	if workers < 1 {
		workers = 1
	}
	secs := 1 + len(s.queue)/workers
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Job looks a job up by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs, newest first.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

func (s *Scheduler) runJob(job *Job) {
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if s.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	wait := job.started.Sub(job.queued)
	job.mu.Unlock()
	s.gauge(obs.MetricQueueDepth, float64(len(s.queue)))
	s.addGauge(obs.MetricInflightJobs, 1)
	s.stage(obs.StageQueueWait, wait, job.trace)
	s.opts.Recorder.Record(obs.Event{Type: obs.EvJobStarted, Job: job.ID, Key: job.Key, Trace: job.trace})

	// Distributed cache tier: after the local miss that queued this
	// job, ask the key's peer owners before executing anything. The
	// probe runs outside every lock — it is network I/O.
	if s.opts.Peers != nil {
		probeStart := time.Now()
		data, ok := s.opts.Peers.Fetch(ctx, job.Key)
		s.stage(obs.StagePeerProbe, time.Since(probeStart), job.trace)
		if ok {
			if sha, valid := validPeerResult(job.Key, data); valid {
				s.count(obs.MetricPeerCacheHits)
				s.opts.Recorder.Record(obs.Event{Type: obs.EvPeerCacheHit, Job: job.ID, Key: job.Key, Trace: job.trace})
				s.finishFromPeer(job, data, sha)
				return
			}
		}
		s.count(obs.MetricPeerCacheMisses)
		s.opts.Recorder.Record(obs.Event{Type: obs.EvPeerCacheMiss, Job: job.ID, Key: job.Key, Trace: job.trace})
	}

	runSpan := job.span.Child(systemCrossd, csi.ControlPlane, "run")
	runStart := time.Now()
	res, err := s.opts.Executor.Execute(ctx, job.Spec, func(f core.Failure) {
		ev := StreamEvent{
			Type:      "failure",
			Oracle:    f.Oracle.String(),
			Signature: f.Signature,
			Detail:    f.Detail,
		}
		if f.Case != nil {
			ev.Plan = f.Case.Plan.Name()
			ev.Format = f.Case.Format
			if f.Case.Input != nil {
				ev.Input = f.Case.Input.Name
			}
		}
		s.opts.Recorder.Record(obs.Event{Type: obs.EvOracleFailure, Job: job.ID, Trace: job.trace, Detail: f.Signature})
		job.emit(ev)
	})
	runSpan.Fail(err).End()
	s.stage(obs.StageRun, time.Since(runStart), job.trace)

	state := StateDone
	var final StreamEvent
	var data []byte
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		state = StateCancelled
		final = StreamEvent{Type: StateCancelled, Error: err.Error()}
	case err != nil:
		state = StateFailed
		final = StreamEvent{Type: StateFailed, Error: err.Error()}
	default:
		encStart := time.Now()
		data, err = marshalResult(res)
		if err != nil {
			state = StateFailed
			final = StreamEvent{Type: StateFailed, Error: err.Error()}
		} else {
			// Cache before publishing: once a result is visible, every
			// identical submission must be able to hit.
			final = StreamEvent{Type: StateDone, ReportSHA: res.ReportSHA}
			if cerr := s.opts.Cache.Put(job.Key, data); cerr != nil {
				final.Error = cerr.Error() // disk spill failure is non-fatal
			} else if s.opts.Peers != nil {
				// Write-through to the key's owner so any node can serve
				// the next resubmission without re-executing.
				s.opts.Peers.Offer(job.Key, data)
			}
		}
		s.stage(obs.StageEncode, time.Since(encStart), job.trace)
	}

	s.complete(job, state, data, err, final)
}

// finishFromPeer completes a job whose result (with report hash sha)
// arrived from the distributed cache tier: stored locally, published,
// and counted as a finished (cache-hit) job — without one case
// executing.
func (s *Scheduler) finishFromPeer(job *Job, data []byte, sha string) {
	final := StreamEvent{Type: StateDone, CacheHit: true, ReportSHA: sha}
	if cerr := s.opts.Cache.Put(job.Key, data); cerr != nil {
		final.Error = cerr.Error() // disk spill failure is non-fatal
	}
	job.span.Set("cache", "peer")
	s.complete(job, StateDone, data, nil, final)
}

// complete is the last step of every job that ran or was served by a
// peer: it stores the job's final state, drops it from byKey, publishes
// final, settles the in-flight gauge, the finished counter, the
// duration histogram, the recorder and the span, and only then closes
// done — so whoever done wakes sees the job fully accounted for.
func (s *Scheduler) complete(job *Job, state string, data []byte, err error, final StreamEvent) {
	failed := state != StateDone && err != nil
	job.mu.Lock()
	job.state = state
	job.cacheHit = final.CacheHit
	job.finished = time.Now()
	job.result = data
	if failed {
		job.err = err.Error()
	}
	dur := job.finished.Sub(job.started)
	job.mu.Unlock()

	s.mu.Lock()
	if s.byKey[job.Key] == job {
		delete(s.byKey, job.Key)
	}
	s.mu.Unlock()

	job.emit(final)
	job.closeSubs()
	s.addGauge(obs.MetricInflightJobs, -1)
	s.count(obs.MetricJobsFinished, "state", state)
	if m := s.opts.Metrics; m != nil {
		m.Histogram(obs.MetricJobDurationMs, nil, "kind", job.Spec.Kind).
			ObserveExemplar(float64(dur)/float64(time.Millisecond), job.trace)
	}
	switch state {
	case StateDone:
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobDone, Job: job.ID, Key: job.Key, Trace: job.trace})
	case StateFailed:
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobFailed, Job: job.ID, Key: job.Key, Trace: job.trace, Detail: final.Error})
	case StateCancelled:
		s.opts.Recorder.Record(obs.Event{Type: obs.EvJobCancelled, Job: job.ID, Key: job.Key, Trace: job.trace, Detail: final.Error})
	}
	if failed {
		job.span.Fail(err)
	}
	job.span.Set("state", state).End()
	close(job.done)
}

// validPeerResult guards against a confused or stale peer: the bytes
// must decode as a JobResult whose content address matches the key we
// asked for, and it returns that result's report hash. Anything else
// is treated as a miss.
func validPeerResult(key string, data []byte) (sha string, ok bool) {
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil || res.Key != key {
		return "", false
	}
	return res.ReportSHA, true
}

// Drain stops admission, lets queued and in-flight jobs finish, and
// returns when the pool is idle. If ctx expires first, the remaining
// jobs are cancelled (they terminate as StateCancelled) and Drain
// waits for the workers to exit. Idempotent.
func (s *Scheduler) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue) // safe: all sends hold mu and re-check draining
	s.mu.Unlock()
	s.opts.Recorder.Record(obs.Event{Type: obs.EvDrainBegin})

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		s.cancelBase()
		<-idle
	}
	s.cancelBase()
	s.opts.Recorder.Record(obs.Event{Type: obs.EvDrainEnd})
}

// marshalResult produces the canonical result bytes (stable field
// order, trailing newline) served by /result and stored in the cache.
func marshalResult(res *JobResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// reportSHA recovers the report hash from marshaled result bytes for
// the cache-hit done event, decoding that one field only: the local
// cache holds only bytes this node marshaled or validated.
func reportSHA(data []byte) string {
	var res struct {
		ReportSHA string `json:"report_sha256"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return ""
	}
	return res.ReportSHA
}

// metric helpers: a nil registry, and the nil metrics it returns, do
// nothing.
func (s *Scheduler) count(name string, labels ...string) {
	s.opts.Metrics.Counter(name, labels...).Inc()
}

// stage records one pipeline-stage latency with the job's trace ID as
// the bucket exemplar, joining the histogram back to the span chain.
func (s *Scheduler) stage(stage string, d time.Duration, trace string) {
	s.opts.Metrics.Histogram(obs.MetricStageDurationMs, nil, "stage", stage).
		ObserveExemplar(float64(d)/float64(time.Millisecond), trace)
}

func (s *Scheduler) gauge(name string, v float64) {
	s.opts.Metrics.Gauge(name).Set(v)
}

// addGauge adjusts a gauge by delta under the scheduler lock (obs
// gauges are set-only, so read-modify-write needs external ordering).
func (s *Scheduler) addGauge(name string, delta float64) {
	if s.opts.Metrics == nil {
		return
	}
	s.mu.Lock()
	g := s.opts.Metrics.Gauge(name)
	g.Set(g.Value() + delta)
	s.mu.Unlock()
}
