package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/serve"
)

// This file is the bridge from the virtual-time engine to the real
// crossd service: the same retry policies and circuit breaker, driven
// wall-clock through the serve.Scheduler/Runner seam (no HTTP). The
// phase diagram predicts which client behaviours melt the scheduler's
// admission path; DriveScheduler is how those behaviours are replayed
// against the production code to check the prediction — rejections
// arrive as ErrQueueFull/ErrThrottled exactly where the SimServer
// hands back ReasonQueueFull/ReasonThrottled, and the Retry-After
// hint comes from the same queue-depth derivation the 429 header uses.

// CrossdStormOptions configure one storm against a real scheduler.
type CrossdStormOptions struct {
	Seed     uint64
	Sessions int // distinct jobs pushed through the scheduler
	Clients  int // concurrent submitters (the storm's parallelism)

	Policy  RetryPolicy
	Breaker BreakerConfig // shared client-side breaker (process-wide)

	// DelayDiv compresses retry delays so second-scale backoff runs in
	// test time: a policy delay of d ms sleeps d/DelayDiv ms of wall
	// clock (default 1, i.e. uncompressed).
	DelayDiv int64

	// WaitTimeout bounds how long a client waits for an admitted job to
	// finish before counting it failed (default 30 s).
	WaitTimeout time.Duration

	// JobN sizes each fuzz job (default 8 cases).
	JobN int
}

// CrossdStormStats is the storm's outcome. Totals are exact
// (conservation: Completed+Failed+GiveUps+BreakerShed == Sessions) but
// the split between rejection kinds is wall-clock dependent — assert
// shapes, not bytes.
type CrossdStormStats struct {
	Sessions       int64
	Attempts       int64
	Completed      int64
	Failed         int64
	RejectQueue    int64
	RejectThrottle int64
	BreakerShed    int64
	GiveUps        int64
	BreakerOpens   int64
}

// lockedBreaker adapts the engine's single-threaded breaker to the
// storm's concurrent clients.
type lockedBreaker struct {
	mu sync.Mutex
	b  *Breaker
}

func (l *lockedBreaker) allow(nowMs int64) bool {
	if l.b == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Allow(nowMs)
}

func (l *lockedBreaker) record(nowMs int64, ok bool) {
	if l.b == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.Record(nowMs, ok)
}

func (l *lockedBreaker) opens() int64 {
	if l.b == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Opens
}

// DriveScheduler replays a retry storm against a live scheduler. Each
// session is a distinct job spec (seed-derived, so nothing coalesces);
// each client runs the session loop: submit, wait on admission, retry
// per policy on ErrQueueFull/ErrThrottled using the scheduler's own
// RetryAfterSeconds hint, shed terminally when the breaker is open.
func DriveScheduler(sched *serve.Scheduler, opts CrossdStormOptions) (*CrossdStormStats, error) {
	if sched == nil {
		return nil, fmt.Errorf("loadgen: storm needs a scheduler")
	}
	if opts.Sessions < 1 {
		return nil, fmt.Errorf("loadgen: storm needs sessions > 0")
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("loadgen: storm needs a retry policy")
	}
	if opts.Clients < 1 {
		opts.Clients = 1
	}
	if opts.DelayDiv < 1 {
		opts.DelayDiv = 1
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 30 * time.Second
	}
	if opts.JobN < 1 {
		opts.JobN = 8
	}

	stats := &CrossdStormStats{Sessions: int64(opts.Sessions)}
	var mu sync.Mutex
	breaker := &lockedBreaker{b: NewBreaker(opts.Breaker)}
	//crossvet:wallclock the storm bridge deliberately drives a real scheduler in wall time; nothing here feeds a pinned report
	start := time.Now()
	//crossvet:wallclock breaker timestamps measure the same wall-clock storm, not virtual time
	nowMs := func() int64 { return time.Since(start).Milliseconds() }

	sessions := make([]int, opts.Sessions)
	for i := range sessions {
		sessions[i] = i
	}
	// A nil context never stops the pool, so it returns no error.
	_ = core.RunPool(nil, opts.Clients, sessions, func(i int) {
		runStormSession(sched, opts, i, breaker, nowMs, stats, &mu)
	})
	stats.BreakerOpens = breaker.opens()
	return stats, nil
}

func runStormSession(sched *serve.Scheduler, opts CrossdStormOptions, i int,
	breaker *lockedBreaker, nowMs func() int64, stats *CrossdStormStats, mu *sync.Mutex) {
	rng := fuzzgen.NewRand(fuzzgen.DeriveSeed(opts.Seed, i))
	spec := serve.JobSpec{
		Kind:     serve.KindFuzz,
		Seed:     fuzzgen.DeriveSeed(opts.Seed, i),
		N:        opts.JobN,
		Parallel: 1,
	}
	bump := func(f func()) {
		mu.Lock()
		f()
		mu.Unlock()
	}
	for attempt := 1; ; attempt++ {
		if !breaker.allow(nowMs()) {
			// Terminal shed — the same fail-fast the engine models: an
			// open breaker surfaces the error instead of queueing another
			// lap of the retry loop.
			bump(func() { stats.BreakerShed++ })
			return
		}
		bump(func() { stats.Attempts++ })
		job, err := sched.Submit(spec)
		switch {
		case err == nil:
			select {
			case <-job.Done():
			//crossvet:wallclock the admitted-job wait races real scheduler completion against a wall-clock deadline by design
			case <-time.After(opts.WaitTimeout):
				bump(func() { stats.Failed++ })
				breaker.record(nowMs(), false)
				return
			}
			if job.Status().State == serve.StateDone {
				bump(func() { stats.Completed++ })
				breaker.record(nowMs(), true)
			} else {
				bump(func() { stats.Failed++ })
				breaker.record(nowMs(), false)
			}
			return
		case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrThrottled):
			bump(func() {
				if errors.Is(err, serve.ErrThrottled) {
					stats.RejectThrottle++
				} else {
					stats.RejectQueue++
				}
			})
			breaker.record(nowMs(), false)
			hintMs := int64(sched.RetryAfterSeconds()) * 1000
			d := opts.Policy.Delay(attempt, hintMs, rng)
			if d < 0 {
				bump(func() { stats.GiveUps++ })
				return
			}
			//crossvet:wallclock retry backoff sleeps real time against the real scheduler (compressed by DelayDiv)
			time.Sleep(time.Duration(d) * time.Millisecond / time.Duration(opts.DelayDiv))
		default:
			bump(func() { stats.Failed++ })
			return
		}
	}
}
