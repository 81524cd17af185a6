package replay

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/obs"
)

// TestScenario23Chains pins the acceptance property: each of the three
// §2.3 scenarios yields a propagation chain crossing at least two
// systems, in causal order (the initiating system leads).
func TestScenario23Chains(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first csi.System
		also  csi.System
	}{
		{"storm", csi.Flink, csi.YARN},
		{"filesize", csi.Spark, csi.HDFS},
		{"scheduler", csi.Flink, csi.YARN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Scenario23Trace(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			hops := tr.Chain(nil)
			systems := chainSystems(hops)
			if len(systems) < 2 {
				t.Fatalf("chain crosses %d systems, want >= 2: %v", len(systems), systems)
			}
			if systems[0] != tc.first {
				t.Errorf("chain starts at %s, want %s", systems[0], tc.first)
			}
			found := false
			for _, s := range systems[1:] {
				if s == tc.also {
					found = true
				}
			}
			if !found {
				t.Errorf("chain never reaches %s after %s: %v", tc.also, tc.first, systems)
			}
			rendered := obs.RenderChain(hops)
			if !strings.Contains(rendered, "→") {
				t.Errorf("rendered chain has no arrows: %q", rendered)
			}
			t.Logf("%s: %s", tc.name, rendered)
		})
	}
}

// chainSystems returns the distinct systems of a chain in hop order.
func chainSystems(hops []obs.Hop) []csi.System {
	var out []csi.System
	for _, h := range hops {
		if !slices.Contains(out, h.System) {
			out = append(out, h.System)
		}
	}
	return out
}

// TestScenario23FailureMarked pins that the buggy filesize and
// scheduler replays mark the failing hop.
func TestScenario23FailureMarked(t *testing.T) {
	for _, name := range []string{"filesize", "scheduler"} {
		tr, err := Scenario23Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		chain := obs.RenderChain(tr.Chain(nil))
		if !strings.Contains(chain, "✗") {
			t.Errorf("%s chain has no failure mark: %q", name, chain)
		}
	}
}

// TestScenario23Unknown rejects unknown scenario names.
func TestScenario23Unknown(t *testing.T) {
	if _, err := Scenario23Trace("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestStormTraceOnVirtualClock pins that storm spans carry virtual
// timestamps: YARN allocations land after the Flink requests that
// triggered them.
func TestStormTraceOnVirtualClock(t *testing.T) {
	tr, err := Scenario23Trace("storm")
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	var firstFlink, firstAlloc int64 = -1, -1
	for _, s := range spans {
		if s.System == csi.Flink && firstFlink < 0 {
			firstFlink = s.StartMs
		}
		if s.System == csi.YARN && s.Name == "allocate" && firstAlloc < 0 {
			firstAlloc = s.StartMs
		}
	}
	if firstFlink < 0 || firstAlloc < 0 {
		t.Fatalf("missing spans: flink@%d alloc@%d", firstFlink, firstAlloc)
	}
	if firstAlloc <= firstFlink {
		t.Errorf("first allocation at %dms not after first request at %dms", firstAlloc, firstFlink)
	}
}
