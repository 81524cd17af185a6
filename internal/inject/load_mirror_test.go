// External test package: internal/core (which loadgen uses for report
// hashing) imports inject, so the mirror test must sit outside the
// package to avoid a test-only import cycle.
package inject_test

import (
	"testing"

	"repro/internal/inject"
	"repro/internal/loadgen"
)

// TestLoadRegistryMirrorsClassifier pins the round trip with the
// loadgen classifier in both directions: every signature the
// classifier can emit maps to exactly one registry entry, and every
// registry signature is one the classifier actually emits.
func TestLoadRegistryMirrorsClassifier(t *testing.T) {
	emitted := []string{loadgen.SigMetastableCollapse, loadgen.SigRetryStorm, loadgen.SigThunderingHerd}
	known := map[string]bool{}
	for _, sig := range emitted {
		known[sig] = true
	}
	index := map[string]bool{}
	for _, d := range inject.LoadRegistry() {
		for _, sig := range d.Signatures {
			index[sig] = true
			if !known[sig] {
				t.Errorf("%s signature %q is not one the classifier emits", d.ID, sig)
			}
		}
	}
	for _, sig := range emitted {
		if !index[sig] {
			t.Errorf("classifier signature %q has no registry entry", sig)
		}
	}
}
