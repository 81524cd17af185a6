package main

import "testing"

// The §3 sample line lists providers in a fixed order, so csistudy's
// output is the same on every run.
func TestIncidentSampleOrder(t *testing.T) {
	const want = "Cloud incidents (§3): 55 sampled  AWS=15  Azure=20  GCP=20"
	for i := 0; i < 20; i++ {
		if got := incidentSample(); got != want {
			t.Fatalf("incidentSample() = %q, want %q", got, want)
		}
	}
}
