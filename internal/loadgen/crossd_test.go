package loadgen

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// gateRunner is the crossd executor stand-in: jobs block on the gate
// (nil = run immediately), so tests control exactly when the scheduler
// is wedged. started (when non-nil) receives one token per Execute
// entry for deterministic wedging; buffer it for every job the test
// will ever run, since nothing drains it after the wedge.
type gateRunner struct {
	gate    chan struct{}
	started chan struct{}
	delay   time.Duration
}

func (r *gateRunner) Execute(ctx context.Context, spec serve.JobSpec, _ func(core.Failure)) (*serve.JobResult, error) {
	if r.started != nil {
		r.started <- struct{}{}
	}
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	key, err := spec.CacheKey()
	if err != nil {
		return nil, err
	}
	return &serve.JobResult{Key: key, Kind: spec.Kind, Spec: spec, Rendered: "storm", ReportSHA: core.HashBytes([]byte("storm"))}, nil
}

// newStormScheduler builds the scheduler under test and the metrics
// registry it reports admission rejections to.
func newStormScheduler(t *testing.T, runner serve.Runner, workers, depth int) (*serve.Scheduler, *obs.Registry) {
	t.Helper()
	cache, err := serve.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := serve.NewScheduler(serve.SchedulerOptions{
		Workers: workers, QueueDepth: depth, Cache: cache, Executor: runner, Metrics: reg,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, reg
}

// wedge fills the scheduler: every worker provably blocked inside
// Execute, every queue slot occupied. Until the gate closes, any
// further submission deterministically gets ErrQueueFull.
func wedge(t *testing.T, s *serve.Scheduler, runner *gateRunner, workers, depth int) {
	t.Helper()
	for w := 0; w < workers; w++ {
		if _, err := s.Submit(serve.JobSpec{Kind: serve.KindFuzz, Seed: uint64(90001 + w), N: 10}); err != nil {
			t.Fatal(err)
		}
		<-runner.started
	}
	for i := 0; i < depth; i++ {
		if _, err := s.Submit(serve.JobSpec{Kind: serve.KindFuzz, Seed: uint64(90101 + i), N: 10}); err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
	}
}

// TestCrossdStormNaiveGivesUp replays the phase diagram's naive row
// against the real scheduler while it is wedged: every submission hits
// the full queue, every session burns its attempts and gives up —
// retry amplification with zero goodput, exactly the storm shape the
// virtual cells predict.
func TestCrossdStormNaiveGivesUp(t *testing.T) {
	const workers, depth = 2, 4
	runner := &gateRunner{gate: make(chan struct{}), started: make(chan struct{}, 256)}
	s, _ := newStormScheduler(t, runner, workers, depth)
	wedge(t, s, runner, workers, depth)

	stats, err := DriveScheduler(s, CrossdStormOptions{
		Seed: 42, Sessions: 20, Clients: 4,
		Policy: Naive{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(runner.gate)

	if stats.Completed != 0 || stats.GiveUps != 20 {
		t.Errorf("wedged naive storm: completed %d, give-ups %d, want 0/20", stats.Completed, stats.GiveUps)
	}
	if want := int64(20 * 3); stats.Attempts != want || stats.RejectQueue != want {
		t.Errorf("attempts %d rejects %d, want %d each: 3x amplification, all rejected", stats.Attempts, stats.RejectQueue, want)
	}
}

// TestCrossdStormBreakerShedsTerminally pins the engine's key client
// lesson on the real scheduler: once the shared breaker opens, later
// sessions shed terminally instead of re-entering the retry loop.
func TestCrossdStormBreakerShedsTerminally(t *testing.T) {
	const workers, depth = 2, 4
	runner := &gateRunner{gate: make(chan struct{}), started: make(chan struct{}, 256)}
	s, _ := newStormScheduler(t, runner, workers, depth)
	wedge(t, s, runner, workers, depth)

	// One client, so the breaker's state machine is sequential: session
	// 1 fails three straight submissions and opens the breaker; every
	// later session is shed before touching the scheduler.
	stats, err := DriveScheduler(s, CrossdStormOptions{
		Seed: 42, Sessions: 10, Clients: 1,
		Policy:  Naive{MaxAttempts: 3},
		Breaker: BreakerConfig{Enabled: true, FailThreshold: 3, OpenMs: 600_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(runner.gate)

	if stats.Attempts != 3 || stats.GiveUps != 1 {
		t.Errorf("first session: attempts %d give-ups %d, want 3/1", stats.Attempts, stats.GiveUps)
	}
	if stats.BreakerShed != 9 {
		t.Errorf("breaker shed %d of the remaining sessions, want 9", stats.BreakerShed)
	}
	if stats.BreakerOpens != 1 {
		t.Errorf("breaker opened %d times, want 1", stats.BreakerOpens)
	}
}

// TestCrossdStormBackoffRecovers is the defended row: capped backoff
// honoring the scheduler's own Retry-After hint rides out a wedge
// window and then completes every session.
func TestCrossdStormBackoffRecovers(t *testing.T) {
	const workers, depth = 2, 4
	runner := &gateRunner{gate: make(chan struct{}), started: make(chan struct{}, 256), delay: 2 * time.Millisecond}
	s, reg := newStormScheduler(t, runner, workers, depth)
	wedge(t, s, runner, workers, depth)

	done := make(chan struct{})
	var stats *CrossdStormStats
	var err error
	go func() {
		defer close(done)
		stats, err = DriveScheduler(s, CrossdStormOptions{
			Seed: 42, Sessions: 30, Clients: 6,
			// Hint-honoring backoff: a 2 s Retry-After compresses to
			// 20 ms of wall clock.
			Policy:   CappedBackoff{BaseMs: 100, CapMs: 5000, MaxAttempts: 200, FullJitter: true, HonorRetryAfter: true},
			DelayDiv: 100,
		})
	}()

	// Hold the wedge until the storm has hit the full queue, then lift
	// it and let the storm drain. The deadline is only a fail-safe: if
	// it fires, the RejectQueue check below reports the unstressed run.
	rejected := reg.Counter(obs.MetricAdmissionRejections, "reason", "queue_full")
	for deadline := time.Now().Add(10 * time.Second); rejected.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(runner.gate)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("storm did not finish after the wedge lifted")
	}
	if err != nil {
		t.Fatal(err)
	}

	if stats.Completed != 30 {
		t.Errorf("completed %d of 30 sessions, want all: backoff + Retry-After must recover", stats.Completed)
	}
	if stats.Failed != 0 || stats.GiveUps != 0 || stats.BreakerShed != 0 {
		t.Errorf("failed %d give-ups %d shed %d, want 0s", stats.Failed, stats.GiveUps, stats.BreakerShed)
	}
	if stats.RejectQueue == 0 {
		t.Error("no queue rejections while wedged: the storm never stressed the scheduler")
	}
	if stats.Attempts <= stats.Completed {
		t.Errorf("attempts %d <= completions %d: retries never happened", stats.Attempts, stats.Completed)
	}
}

func TestCrossdStormOptionValidation(t *testing.T) {
	if _, err := DriveScheduler(nil, CrossdStormOptions{Sessions: 1, Policy: Naive{MaxAttempts: 1}}); err == nil {
		t.Error("nil scheduler accepted")
	}
	runner := &gateRunner{}
	s, _ := newStormScheduler(t, runner, 1, 1)
	if _, err := DriveScheduler(s, CrossdStormOptions{Policy: Naive{MaxAttempts: 1}}); err == nil {
		t.Error("zero sessions accepted")
	}
	if _, err := DriveScheduler(s, CrossdStormOptions{Sessions: 1}); err == nil {
		t.Error("nil policy accepted")
	}
}
