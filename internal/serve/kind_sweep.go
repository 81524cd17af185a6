package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/inject"
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
	inputs, err := corpusInputs(s.InputPrefix)
	if err != nil {
		return nil, err
	}
	names, configs := sweepConfigs()
	cells, err := core.ConfigSweep(inputs, names, configs, e.runOptions(ctx, s, onFailure))
	if err != nil {
		return nil, err
	}
	return &JobResult{Sweep: cells, Rendered: core.RenderSweep(cells)}, nil
}

// sweepConfigs assembles the sweep matrix exactly as crosstest -sweep
// does: the default configuration as baseline, then every distinct
// registry fix configuration.
func sweepConfigs() ([]string, map[string]map[string]string) {
	names := []string{"default"}
	configs := map[string]map[string]string{"default": nil}
	for _, d := range inject.Registry() {
		if len(d.FixConf) == 0 {
			continue
		}
		name := fmt.Sprintf("fix-%d", d.Number)
		if _, seen := configs[name]; seen {
			continue
		}
		names = append(names, name)
		configs[name] = d.FixConf
	}
	return names, configs
}
