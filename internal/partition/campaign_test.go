package partition

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSeed pins the campaign every golden and differential assertion
// runs: the CI partition-smoke job and the serve tests use the same
// seed, so one pinned report covers them all.
const goldenSeed = 42

func mustRun(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenCompareReport pins the full seed-42 compare campaign byte
// for byte. Any behavioural drift in a scenario, the injector, the
// random schedules, or the renderer shows up as a golden diff
// (regenerate deliberately with -update).
func TestGoldenCompareReport(t *testing.T) {
	res := mustRun(t, Options{Seed: goldenSeed, Strategy: StrategyCompare})
	got := res.Render()
	path := filepath.Join("testdata", "compare_seed42.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("compare report drifted from golden (regenerate deliberately with -update):\n got:\n%s\nwant:\n%s", got, want)
	}
	if res.Hash() != core.HashBytes([]byte(got)) {
		t.Error("Hash() must be the hash of the rendered report")
	}
}

// TestGuidedFindsWhatRandomMisses is the CoFI differential the whole
// package exists for: under the same seed budget, the consistency-
// guided injector reaches every P* finding while random-time injection
// (20 trials x 1000 ms holds per scenario) reaches only the scenarios
// whose inconsistency windows are wide or whose effects outlast a heal.
func TestGuidedFindsWhatRandomMisses(t *testing.T) {
	res := mustRun(t, Options{Seed: goldenSeed, Strategy: StrategyCompare})

	var guided, random []string
	for _, out := range res.Outcomes {
		if len(out.GuidedFindings) > 0 {
			guided = append(guided, out.ID)
		}
		if len(out.RandomFindings) > 0 {
			random = append(random, out.ID)
		}
	}
	if want := []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7"}; !reflect.DeepEqual(guided, want) {
		t.Errorf("guided found %v, want every scenario %v", guided, want)
	}
	if want := []string{"P2", "P5"}; !reflect.DeepEqual(random, want) {
		t.Errorf("random found %v, want %v (seed %d)", random, want, goldenSeed)
	}
	only := res.GuidedOnlyIDs()
	if len(only) < 3 {
		t.Fatalf("guided-only = %v; the differential needs at least 3 scenarios random misses", only)
	}
	if want := []string{"P1", "P3", "P4", "P6", "P7"}; !reflect.DeepEqual(only, want) {
		t.Errorf("GuidedOnlyIDs = %v, want %v", only, want)
	}
}

// TestBaselinesClean pins that no scenario violates its invariant
// without injection — a non-empty baseline would mean the finding is a
// modeling bug, not a partition bug — and that every scenario has a
// real, bounded natural inconsistency window for the guided injector to
// hit (P7's stays open: the pending book diverges until the delayed
// notifications drain).
func TestBaselinesClean(t *testing.T) {
	res := mustRun(t, Options{Seed: goldenSeed, Strategy: StrategyObserve})
	for _, out := range res.Outcomes {
		if len(out.Baseline) != 0 {
			t.Errorf("%s: %d baseline violations without injection: %+v", out.ID, len(out.Baseline), out.Baseline)
		}
		if out.WindowOpenMs < 0 {
			t.Errorf("%s: no natural inconsistency window; guided injection has nothing to react to", out.ID)
		}
		if out.ID != "P7" && out.WindowCloseMs <= out.WindowOpenMs {
			t.Errorf("%s: window [%d, %d) never closes; reconciliation should repair it un-injected",
				out.ID, out.WindowOpenMs, out.WindowCloseMs)
		}
	}
}

// TestHoldPreventsMasking demonstrates why the guided injector HOLDS
// its cut: the same cut at the same instant inside P1's window finds
// the bug when held to the horizon, and is masked when healed — the
// next block report repairs the NameNode's replica list before the
// client read.
func TestHoldPreventsMasking(t *testing.T) {
	cut := Cut{AtMs: 2100, From: "dn1", To: "nn"} // inside P1's [2020, 2250) window
	held := mustRun(t, Options{
		Seed: goldenSeed, Scenarios: []string{"hdfs-replica"},
		Strategy: StrategyFixed, Schedule: []Cut{cut},
	})
	if n := len(held.Outcomes[0].FixedFindings); n != 1 {
		t.Fatalf("held cut found %d violations, want 1", n)
	}

	cut.HealAtMs = 2400 // heal before the 2500 ms block report
	healed := mustRun(t, Options{
		Seed: goldenSeed, Scenarios: []string{"hdfs-replica"},
		Strategy: StrategyFixed, Schedule: []Cut{cut},
	})
	if n := len(healed.Outcomes[0].FixedFindings); n != 0 {
		t.Fatalf("healed cut found %d violations, want 0: recovery must mask the unheld cut", n)
	}
}

// TestParallelDeterminism pins the deterministic-replay property:
// identical options render byte-identical reports (and emit identical
// finding streams) regardless of worker count. Run under -race and
// -count=3 by the tier-1 suite.
func TestParallelDeterminism(t *testing.T) {
	var seq, par []Finding
	r1 := mustRun(t, Options{Seed: goldenSeed, Strategy: StrategyCompare, Parallel: 1,
		OnFinding: func(f Finding) { seq = append(seq, f) }})
	r4 := mustRun(t, Options{Seed: goldenSeed, Strategy: StrategyCompare, Parallel: 4,
		OnFinding: func(f Finding) { par = append(par, f) }})
	if r1.Render() != r4.Render() {
		t.Error("report differs between -parallel 1 and 4")
	}
	if r1.Hash() != r4.Hash() {
		t.Error("hash differs between -parallel 1 and 4")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("OnFinding stream differs:\n seq=%+v\n par=%+v", seq, par)
	}
}

// TestPlanRandomDeterministic pins that random schedules are a pure
// function of (seed, scenario, trial) — and independent of which
// scenario subset a campaign selects, so a single-scenario rerun
// replays exactly the cuts the full campaign injected.
func TestPlanRandomDeterministic(t *testing.T) {
	full, err := PlanRandom(goldenSeed, nil, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := PlanRandom(goldenSeed, nil, 5, 1000)
	if !reflect.DeepEqual(full, again) {
		t.Error("same seed produced different plans")
	}
	other, _ := PlanRandom(goldenSeed+1, nil, 5, 1000)
	if reflect.DeepEqual(full, other) {
		t.Error("different seeds produced identical plans")
	}

	sub, err := PlanRandom(goldenSeed, []string{"kafka-isr"}, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var fromFull []PlannedCut
	for _, c := range full {
		if c.Scenario == "kafka-isr" {
			fromFull = append(fromFull, c)
		}
	}
	if !reflect.DeepEqual(sub, fromFull) {
		t.Errorf("subset plan differs from the full plan's kafka-isr slice:\n sub=%v\n full=%v", sub, fromFull)
	}
}

// TestCampaignErrors covers the admission-style failures Run must
// reject rather than guess at.
func TestCampaignErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"unknown scenario", Options{Scenarios: []string{"nope"}}, `unknown scenario "nope"`},
		{"unknown strategy", Options{Strategy: "chaotic"}, `unknown strategy "chaotic"`},
		{"fixed without schedule", Options{Strategy: StrategyFixed}, "needs a non-empty schedule"},
		{"negative trials", Options{Trials: -3}, "Trials must be non-negative, got -3"},
		{"negative hold", Options{HoldMs: -5}, "HoldMs must be non-negative, got -5"},
		{"cut on an unselected node", Options{Scenarios: []string{"kafka-isr"},
			Schedule: []Cut{{AtMs: 1, From: "controller", To: "nn"}}}, `names node "nn"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := PlanRandom(1, []string{"nope"}, 1, 1); err == nil {
		t.Error("PlanRandom accepted an unknown scenario")
	}
	if _, err := PlanRandom(1, nil, -3, 1); err == nil {
		t.Error("PlanRandom accepted a negative trial count")
	}
}

// TestFixedSkipsUnknownNodes pins that a fixed schedule spanning
// several scenarios applies to each only the cuts whose nodes exist
// there (Resolve validates against the union of selected scenarios).
func TestFixedSkipsUnknownNodes(t *testing.T) {
	res := mustRun(t, Options{
		Seed: goldenSeed, Scenarios: []string{"yarn-app-state", "hdfs-replica", "kafka-isr"},
		Strategy: StrategyFixed,
		Schedule: []Cut{
			{AtMs: 2050, From: "am", To: "rm"},       // applies: inside P3's window
			{AtMs: 2100, From: "dn1", To: "nn"},      // P1 nodes; skipped here
			{AtMs: 10, From: "controller", To: "b1"}, // P5 nodes; skipped here
		},
	})
	out := res.Outcomes[0]
	if n := len(out.FixedFindings); n != 1 {
		t.Fatalf("fixed findings = %d, want 1 (the am-rm cut inside the window)", n)
	}
	if got := out.FixedFindings[0].CutAtMs; got != 2050 {
		t.Errorf("CutAtMs = %d, want 2050 (the applied cut, not a skipped one)", got)
	}
}
