package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
)

// partitionKind runs a CoFI partition campaign over the control-plane
// scenario registry. A cluster splits it into one plain spec per
// scenario — sound because each scenario's schedule derives from (seed,
// scenario, trial) alone — unless the spec carries an explicit cut
// schedule (always so under the fixed strategy): a schedule is
// validated against the union of the selected scenarios, so a
// one-scenario sub-spec may not admit it.
var partitionKind = kind{
	validate: validatePartition,
	key: func(s *JobSpec, ks *keySpec) error {
		// Defaults are part of the key (a 0-trials and a 20-trials
		// campaign are one result), and the scenario list is explicit, so
		// growing the registry mints new keys instead of serving stale
		// "all scenarios" results.
		o, err := s.PartitionOptions()
		if err != nil {
			return err
		}
		ks.Seed, ks.Scenarios, ks.Strategy = o.Seed, o.Scenarios, string(o.Strategy)
		ks.Trials, ks.HoldMs, ks.Schedule = o.Trials, o.HoldMs, o.Schedule
		return nil
	},
	execute: executePartition,
	split:   splitPartition,
}

// PartitionOptions resolves the spec into the campaign options it runs
// under (partition.Options.Resolve: defaults filled in, malformed
// campaigns rejected). A cluster merge assembles the merged campaign
// under the same options.
func (s *JobSpec) PartitionOptions() (partition.Options, error) {
	return partition.Options{
		Seed:      s.Seed,
		Scenarios: s.Scenarios,
		Strategy:  partition.Strategy(s.Strategy),
		Trials:    s.Trials,
		HoldMs:    s.HoldMs,
		Schedule:  s.Schedule,
	}.Resolve()
}

// validatePartition rejects, at admission, a campaign the partition
// package rejects and one past crossd's trial limit.
func validatePartition(s *JobSpec) error {
	if _, err := s.PartitionOptions(); err != nil {
		return err
	}
	if s.Trials > 10_000 {
		return fmt.Errorf("serve: trials %d exceeds the 10000 admission limit", s.Trials)
	}
	return nil
}

// executePartition runs the campaign. Campaigns run on the virtual
// clock and finish in milliseconds of wall time, so they are not
// cancellable mid-run; ctx is honored at the admission boundary like
// every other kind.
func executePartition(_ context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	o, err := s.PartitionOptions()
	if err != nil {
		return nil, err
	}
	o.Parallel, o.Tracer, o.Metrics, o.Recorder = s.Parallel, e.Tracer, e.Metrics, e.Recorder
	o.OnFinding = func(f partition.Finding) {
		if onFailure != nil {
			onFailure(core.PartitionFailure(f.Scenario, f.Signature, f.Detail))
		}
	}
	pres, err := partition.Run(o)
	if err != nil {
		return nil, err
	}
	return &JobResult{Partition: pres, Rendered: pres.Render()}, nil
}

func splitPartition(s *JobSpec, _ int) ([]JobSpec, error) {
	o, err := s.PartitionOptions()
	if err != nil {
		return nil, err
	}
	if len(o.Schedule) > 0 {
		return nil, nil
	}
	subs := make([]JobSpec, 0, len(o.Scenarios))
	for _, name := range o.Scenarios {
		sub := *s
		sub.Scenarios = []string{name}
		subs = append(subs, sub)
	}
	return subs, nil
}
