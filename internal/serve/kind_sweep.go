package serve

import (
	"context"

	"repro/internal/core"
)

// sweepKind runs the corpus under the default configuration plus every
// registry fix configuration. A sweep replaces the session conf per
// cell, so the submitted conf cannot change its result and stays out of
// its content address. It does not split.
var sweepKind = kind{
	validate: validateFamilies,
	key:      corpusKey,
	execute:  executeSweep,
}

func executeSweep(ctx context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	inputs, err := core.CorpusInputs(s.InputPrefix)
	if err != nil {
		return nil, err
	}
	cells, err := core.FixSweep(inputs, e.runOptions(ctx, s, onFailure))
	if err != nil {
		return nil, err
	}
	return &JobResult{Sweep: cells, Rendered: core.RenderSweep(cells)}, nil
}
