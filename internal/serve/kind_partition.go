package serve

import (
	"context"
	"fmt"
	"strings"

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
		o := s.PartitionOptions()
		ks.Seed, ks.Scenarios, ks.Strategy = o.Seed, o.Scenarios, string(o.Strategy)
		ks.Trials, ks.HoldMs, ks.Schedule = o.Trials, o.HoldMs, o.Schedule
		return nil
	},
	execute: executePartition,
	split:   splitPartition,
}

// PartitionOptions resolves the spec into the campaign options it runs
// under: an empty scenario list becomes the registry in registry order,
// and the strategy, trial and hold defaults are filled in. A cluster
// merge assembles the merged campaign under the same options.
func (s *JobSpec) PartitionOptions() partition.Options {
	o := partition.Options{
		Seed:      s.Seed,
		Scenarios: s.Scenarios,
		Strategy:  partition.Strategy(s.Strategy),
		Trials:    s.Trials,
		HoldMs:    s.HoldMs,
		Schedule:  s.Schedule,
	}
	if len(o.Scenarios) == 0 {
		for _, sc := range partition.Scenarios() {
			o.Scenarios = append(o.Scenarios, sc.Name)
		}
	}
	if o.Strategy == "" {
		o.Strategy = partition.StrategyGuided
	}
	if o.Trials == 0 {
		o.Trials = partition.DefaultTrials
	}
	if o.HoldMs == 0 {
		o.HoldMs = partition.DefaultHoldMs
	}
	return o
}

// validatePartition rejects malformed partition campaigns at admission:
// unknown scenario names, unknown strategies, a fixed strategy without a
// schedule, and schedule cuts naming nodes no selected scenario has.
func validatePartition(s *JobSpec) error {
	o := s.PartitionOptions()
	nodes := map[string][]string{}
	for _, sc := range partition.Scenarios() {
		nodes[sc.Name] = sc.Nodes
	}
	known := map[string]bool{}
	for _, name := range o.Scenarios {
		scNodes, ok := nodes[name]
		if !ok {
			return fmt.Errorf("serve: unknown partition scenario %q (have %s)", name, strings.Join(partition.Names(), ", "))
		}
		for _, n := range scNodes {
			known[n] = true
		}
	}
	if !partition.ValidStrategy(string(o.Strategy)) {
		return fmt.Errorf("serve: unknown partition strategy %q (have %s)", s.Strategy, strings.Join(partition.Strategies(), ", "))
	}
	if o.Strategy == partition.StrategyFixed && len(o.Schedule) == 0 {
		return fmt.Errorf("serve: partition strategy %q needs a non-empty schedule", partition.StrategyFixed)
	}
	for _, c := range o.Schedule {
		if c.From == "" || c.To == "" {
			return fmt.Errorf("serve: partition schedule cut needs both node names, got %q->%q", c.From, c.To)
		}
		for _, n := range []string{c.From, c.To} {
			if !known[n] {
				return fmt.Errorf("serve: partition schedule names node %q, which no selected scenario has", n)
			}
		}
		if c.AtMs < 0 {
			return fmt.Errorf("serve: partition schedule cut time must be non-negative, got %d", c.AtMs)
		}
		if c.HealAtMs != 0 && c.HealAtMs <= c.AtMs {
			return fmt.Errorf("serve: partition cut heal time %d must follow the cut at %d (or be 0 to hold)", c.HealAtMs, c.AtMs)
		}
	}
	if o.Trials < 0 {
		return fmt.Errorf("serve: trials must be non-negative, got %d", o.Trials)
	}
	if o.Trials > 10_000 {
		return fmt.Errorf("serve: trials %d exceeds the 10000 admission limit", o.Trials)
	}
	if o.HoldMs < 0 {
		return fmt.Errorf("serve: hold_ms must be non-negative, got %d", o.HoldMs)
	}
	return nil
}

// executePartition runs the campaign. Campaigns run on the virtual
// clock and finish in milliseconds of wall time, so they are not
// cancellable mid-run; ctx is honored at the admission boundary like
// every other kind.
func executePartition(_ context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	o := s.PartitionOptions()
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
	o := s.PartitionOptions()
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
