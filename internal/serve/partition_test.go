package serve

// Admission, cache-key, and end-to-end tests for the "partition" job
// kind: CoFI campaigns submitted to crossd, with validation rejecting
// malformed specs at the door and cache keys preserving both the
// partition defaults and every pre-partition key byte.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/partition"
)

func partitionSpec() JobSpec {
	return JobSpec{Kind: KindPartition, Seed: 42, Scenarios: []string{"yarn-app-state"}, Strategy: "guided"}
}

func TestPartitionValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string // "" = valid
	}{
		{"minimal guided", JobSpec{Kind: KindPartition}, ""},
		{"explicit everything", partitionSpec(), ""},
		{"compare with trials", JobSpec{Kind: KindPartition, Strategy: "compare", Trials: 5, HoldMs: 500}, ""},
		{"fixed with schedule", JobSpec{Kind: KindPartition, Strategy: "fixed",
			Schedule: []partition.Cut{{AtMs: 2100, From: "dn1", To: "nn"}}}, ""},
		{"unknown scenario", JobSpec{Kind: KindPartition, Scenarios: []string{"nope"}},
			`unknown scenario "nope"`},
		{"unknown strategy", JobSpec{Kind: KindPartition, Strategy: "chaotic"},
			`unknown strategy "chaotic"`},
		{"fixed without schedule", JobSpec{Kind: KindPartition, Strategy: "fixed"},
			"needs a non-empty schedule"},
		{"cut missing node name", JobSpec{Kind: KindPartition,
			Schedule: []partition.Cut{{AtMs: 1, From: "nn"}}},
			"needs both node names"},
		{"cut names unknown node", JobSpec{Kind: KindPartition, Scenarios: []string{"kafka-isr"},
			Schedule: []partition.Cut{{AtMs: 1, From: "controller", To: "nn"}}},
			`names node "nn"`},
		{"node from unselected scenario", JobSpec{Kind: KindPartition, Scenarios: []string{"hdfs-replica"},
			Schedule: []partition.Cut{{AtMs: 1, From: "rm", To: "nn"}}},
			`names node "rm"`},
		{"negative cut time", JobSpec{Kind: KindPartition,
			Schedule: []partition.Cut{{AtMs: -1, From: "dn1", To: "nn"}}},
			"must be non-negative"},
		{"heal before cut", JobSpec{Kind: KindPartition,
			Schedule: []partition.Cut{{AtMs: 2000, HealAtMs: 1500, From: "dn1", To: "nn"}}},
			"must follow the cut"},
		{"negative trials", JobSpec{Kind: KindPartition, Trials: -1}, "non-negative"},
		{"trials over limit", JobSpec{Kind: KindPartition, Trials: 10_001}, "admission limit"},
		{"negative hold", JobSpec{Kind: KindPartition, HoldMs: -5}, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestPartitionCacheKeySemantics(t *testing.T) {
	base := partitionSpec()
	k1, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	// Defaults normalize into the key: empty strategy means guided,
	// trials 0 means 20, hold 0 means 1000.
	implicit := JobSpec{Kind: KindPartition, Seed: 42, Scenarios: []string{"yarn-app-state"}}
	if k2, _ := implicit.CacheKey(); k2 != k1 {
		t.Error("empty strategy must share the explicit guided key")
	}
	explicit := base
	explicit.Trials, explicit.HoldMs = 20, 1000
	if k3, _ := explicit.CacheKey(); k3 != k1 {
		t.Error("explicit default trials/hold must share the implicit key")
	}

	// An empty scenario list expands to the explicit registry, in
	// registry order (scenario order is identity-bearing: it orders the
	// report).
	var registryOrder []string
	for _, sc := range partition.Scenarios() {
		registryOrder = append(registryOrder, sc.Name)
	}
	all := JobSpec{Kind: KindPartition, Seed: 42}
	named := JobSpec{Kind: KindPartition, Seed: 42, Scenarios: registryOrder}
	ka, _ := all.CacheKey()
	if kn, _ := named.CacheKey(); kn != ka {
		t.Error("empty scenario list must share the full-registry key")
	}

	// Identity-bearing fields mint distinct keys.
	for name, vary := range map[string]func(*JobSpec){
		"seed":     func(s *JobSpec) { s.Seed = 43 },
		"strategy": func(s *JobSpec) { s.Strategy = "compare" },
		"trials":   func(s *JobSpec) { s.Trials = 21 },
		"hold":     func(s *JobSpec) { s.HoldMs = 999 },
		"scenario": func(s *JobSpec) { s.Scenarios = []string{"kafka-isr"} },
	} {
		spec := partitionSpec()
		vary(&spec)
		if k, _ := spec.CacheKey(); k == k1 {
			t.Errorf("varying %s did not change the cache key", name)
		}
	}
}

// TestPrePartitionKeysUnchanged pins one cache key per kind as a hex
// literal: adding fields to keySpec (omitempty), or moving where a
// kind's defaults are resolved, must not move a single existing key, or
// every cached crossd result would be silently orphaned on upgrade.
func TestPrePartitionKeysUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"fuzz", JobSpec{Kind: KindFuzz, Seed: 5, N: 40, Parallel: 2},
			"c403914af57ba99c6c7c648fe9d85e8a9d0cea7fc46f8770d4232a8041769e66"},
		{"corpus", JobSpec{Kind: KindCorpus, Families: []string{"sh", "ss"},
			Conf: map[string]string{"spark.sql.ansi.enabled": "false"}, InputPrefix: "int_"},
			"b65c11f825ab12e74c94324cb3c2b00fc8cd3ff4ca79064000f80484114de0b3"},
		{"sweep", JobSpec{Kind: KindSweep, InputPrefix: "char"},
			"101c1c904ec2ecfe1b5da64b35f1d1d2a5f74225029d203f530de184ccb581ff"},
		{"skew pairs", JobSpec{Kind: KindSkew, Pairs: []string{"3.2.1/3.1.2", "2.3.0/2.3.9->3.2.1/3.1.2"}},
			"008e61aba42dc718b8a2415da3f6733799f7552e7d2c68d4fc62a0b2c77ff67d"},
		{"skew default", JobSpec{Kind: KindSkew},
			"e7c67db03bd8eda35f454c199ad49735b9e35c065cd9a5245aa1ad63ce9fff9e"},
		{"fuzz shard", JobSpec{Kind: KindFuzz, Seed: 5, N: 20, From: 20, Shard: true},
			"05fa3bdb8b47d59e35ae354af148c2a6e25e3233e1074970936dc22321745356"},
		{"partition", JobSpec{Kind: KindPartition, Seed: 42},
			"6d3d4864e5a7bda4b917ca7bc21e5d40bd9d47e2a8f01e1830cf243d3308e4bf"},
		{"partition fixed", JobSpec{Kind: KindPartition, Seed: 3, Strategy: "fixed",
			Scenarios: []string{"hdfs-replica"},
			Schedule:  []partition.Cut{{From: "nn", To: "dn1", AtMs: 100, HealAtMs: 400}}},
			"3aad07214ffc00079937568b3e52d5f95bbf382bfb2be7da1b99193830ab76f3"},
	} {
		key, err := tc.spec.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if key != tc.want {
			t.Errorf("%s cache key moved: %s (pinned %s)", tc.name, key, tc.want)
		}
	}
}

// A guided campaign may carry a cut schedule (only the fixed strategy
// runs it, but it is validated against the selected scenarios' nodes).
// Split per scenario, the schedule would name nodes a sub-spec's single
// scenario lacks, so such a spec runs as one unit instead.
func TestPartitionWithScheduleDoesNotSplit(t *testing.T) {
	spec := JobSpec{Kind: KindPartition, Schedule: []partition.Cut{{From: "nn", To: "dn1"}}}
	subs, err := spec.SubSpecs(3)
	if err != nil || subs != nil {
		t.Fatalf("SubSpecs = %d sub-specs, err %v; want none", len(subs), err)
	}
	if subs, _ := (&JobSpec{Kind: KindPartition}).SubSpecs(3); len(subs) != len(partition.Scenarios()) {
		t.Errorf("schedule-free campaign split into %d sub-specs, want one per scenario", len(subs))
	}
}

// TestPartitionJobEndToEnd submits a partition campaign through the
// scheduler: findings stream as caseless partition-oracle failures,
// the result caches, and an identical resubmission executes nothing.
func TestPartitionJobEndToEnd(t *testing.T) {
	s, exec := newTestScheduler(t, SchedulerOptions{})
	job, err := s.Submit(partitionSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.State != StateDone {
		t.Fatalf("job state %+v", st)
	}

	events, _ := job.Subscribe()
	var failures []StreamEvent
	for _, ev := range events {
		if ev.Type == "failure" {
			failures = append(failures, ev)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("streamed %d failures, want the single P3 finding", len(failures))
	}
	f := failures[0]
	if f.Oracle != "part" || f.Signature != "partition-app-state" {
		t.Errorf("failure = oracle %q signature %q, want part/partition-app-state", f.Oracle, f.Signature)
	}
	if f.Plan != "" || f.Input != "" {
		t.Errorf("partition failures are caseless, got plan %q input %q", f.Plan, f.Input)
	}
	if !strings.Contains(f.Detail, "[yarn-app-state]") {
		t.Errorf("detail %q does not name the scenario", f.Detail)
	}

	data, ok := job.Result()
	if !ok {
		t.Fatal("done job has no result")
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Partition == nil || len(res.Partition.Outcomes) != 1 {
		t.Fatalf("result payload missing the campaign outcome: %+v", res.Partition)
	}
	if res.Partition.Outcomes[0].ID != "P3" {
		t.Errorf("outcome ID %s, want P3", res.Partition.Outcomes[0].ID)
	}

	again, err := s.Submit(partitionSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again)
	if st := again.Status(); !st.CacheHit {
		t.Error("identical resubmission missed the cache")
	}
	if n := exec.Executions(); n != 1 {
		t.Errorf("resubmission executed %d times, want 1", n)
	}
}
