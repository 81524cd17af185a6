package partition

// Round-trip tests between the scenario registry (this package) and
// the P* discrepancy registry (internal/inject): every entry on either
// side must resolve on the other, with matching IDs, anchors, scenario
// names, and signatures — so a campaign finding always classifies and
// a classifier entry is never dead.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inject"
)

func TestRegistryRoundTrip(t *testing.T) {
	scenarios := Scenarios()
	registry := inject.PartitionRegistry()
	if len(scenarios) != len(registry) {
		t.Fatalf("scenario registry has %d entries, P* registry has %d", len(scenarios), len(registry))
	}

	// Scenario -> discrepancy: every scenario's ID, anchor, and
	// signature must resolve to the matching P* entry.
	byID := map[string]inject.PartitionDiscrepancy{}
	bySig := map[string]inject.PartitionDiscrepancy{}
	for _, d := range registry {
		byID[d.ID] = d
		for _, sig := range d.Signatures {
			bySig[sig] = d
		}
	}
	for _, sc := range scenarios {
		d, ok := byID[sc.ID]
		if !ok {
			t.Errorf("scenario %s (%s) has no P* registry entry", sc.ID, sc.Name)
			continue
		}
		if d.Scenario != sc.Name {
			t.Errorf("%s: registry scenario %q != scenario name %q", sc.ID, d.Scenario, sc.Name)
		}
		if d.Anchor != sc.Anchor {
			t.Errorf("%s: registry anchor %q != scenario anchor %q", sc.ID, d.Anchor, sc.Anchor)
		}
		if got, ok := bySig[sc.Signature]; !ok || got.ID != sc.ID {
			t.Errorf("%s: signature %q resolves to %v, want the same entry", sc.ID, sc.Signature, got.ID)
		}
		if len(d.Categories) == 0 || d.Title == "" || d.Invariant == "" {
			t.Errorf("%s: registry entry missing categories, title, or invariant", sc.ID)
		}
	}

	// Discrepancy -> scenario: every P* entry must point at a real
	// scenario and claim exactly its signature.
	for _, d := range registry {
		sc := ByName(d.Scenario)
		if sc == nil {
			t.Errorf("%s: registry scenario %q does not exist", d.ID, d.Scenario)
			continue
		}
		if sc.ID != d.ID {
			t.Errorf("registry %s points at scenario %s", d.ID, sc.ID)
		}
		if len(d.Signatures) != 1 || d.Signatures[0] != sc.Signature {
			t.Errorf("%s: registry signatures %v, want exactly [%s]", d.ID, d.Signatures, sc.Signature)
		}
	}
}

// TestPartitionFailureShape pins the failure lift: partition findings
// carry the partition oracle, a caseless shape (Case and Peer nil), and
// a detail prefixed with the scenario.
func TestPartitionFailureShape(t *testing.T) {
	f := core.PartitionFailure("kafka-isr", "partition-isr-divergence", "offsets vanished")
	if f.Oracle.String() != "part" {
		t.Errorf("oracle = %q, want part", f.Oracle.String())
	}
	if f.Case != nil || f.Peer != nil {
		t.Error("partition failures must not carry a test case or peer")
	}
	if f.Detail != "[kafka-isr] offsets vanished" {
		t.Errorf("detail = %q", f.Detail)
	}
}

// TestPartitionCategoriesOutsideCensus pins that the two control-plane
// categories stay out of Categories(): the §8.2 census and its
// Figure-6 counts are data-plane only.
func TestPartitionCategoriesOutsideCensus(t *testing.T) {
	for _, c := range inject.Categories() {
		if c == inject.OperationOutcome || c == inject.PerfDegradation {
			t.Errorf("control-plane category %q leaked into the §8.2 census", c)
		}
	}
}
