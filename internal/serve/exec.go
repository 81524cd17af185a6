package serve

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Executor runs each job spec through its kind's harness entry point
// (the kinds table). It counts real executions so tests can assert that
// a cache hit ran nothing.
type Executor struct {
	executions atomic.Int64
	// Tracer/Metrics are threaded into every harness run; per-job span
	// trees hang off a per-job root span. Recorder receives partition
	// fault-plane events (cuts, heals, invariant violations); nil
	// disables them.
	Tracer   *obs.Tracer
	Metrics  *obs.Registry
	Recorder *obs.Recorder
}

// Executions returns how many jobs actually ran (cache hits excluded).
func (e *Executor) Executions() int64 { return e.executions.Load() }

// Execute runs the spec under ctx and returns its result. Cancellation
// surfaces as ctx's error; the result of a cancelled job is discarded
// by the scheduler (partial reports are not cacheable).
func (e *Executor) Execute(ctx context.Context, spec JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	e.executions.Add(1)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.stamp(kinds[spec.Kind].execute(ctx, e, &spec, onFailure))
}

// stamp passes on err, or fills in the fields every result of the spec
// shares — its content address, kind, spec and conf echo, and the hash
// of the rendered report — and returns res. Execute stamps every result
// it runs and Merge stamps the result it reassembles, so the two agree
// byte for byte.
func (s *JobSpec) stamp(res *JobResult, err error) (*JobResult, error) {
	if err != nil {
		return nil, err
	}
	key, err := s.CacheKey()
	if err != nil {
		return nil, err
	}
	res.Key, res.Kind, res.Spec, res.Conf = key, s.Kind, *s, s.Conf
	res.ReportSHA = core.HashBytes([]byte(res.Rendered))
	return res, nil
}

// runOptions are the harness options of the corpus-backed kinds.
func (e *Executor) runOptions(ctx context.Context, s *JobSpec, onFailure func(core.Failure)) core.RunOptions {
	return core.RunOptions{
		Context:   ctx,
		Families:  s.Families,
		Parallel:  s.Parallel,
		Tracer:    e.Tracer,
		Metrics:   e.Metrics,
		OnFailure: onFailure,
	}
}
