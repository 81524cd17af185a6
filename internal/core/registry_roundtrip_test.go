package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/inject"
)

// TestRegistrySignaturesRoundTrip drives the corpus through the harness
// and asserts, for every entry of both registries, that its classifier
// signatures round-trip: each signature maps back to exactly its entry
// through the signature index, and the classifier actually emits at
// least one of them, so no registry entry is dead weight the oracles
// can never confirm. The reverse direction is covered too — on the
// baseline deployment every emitted signature must resolve to a
// registry entry (an unmapped one is a candidate discrepancy, which the
// golden Figure-6 pin would already flag).
func TestRegistrySignaturesRoundTrip(t *testing.T) {
	res, err := Run(corpus(t), RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, f := range res.Failures {
		emitted[f.Signature] = true
	}
	bySig := inject.BySignature()
	for sig := range emitted {
		if _, ok := bySig[sig]; !ok {
			t.Errorf("classifier emitted signature %q that maps to no registry entry", sig)
		}
	}
	validCat := map[inject.Category]bool{}
	for _, c := range inject.Categories() {
		validCat[c] = true
	}
	for _, d := range inject.Registry() {
		d := d
		t.Run(fmt.Sprintf("d%02d", d.Number), func(t *testing.T) {
			if d.Title == "" {
				t.Error("entry has no title")
			}
			if len(d.Signatures) == 0 {
				t.Fatal("entry declares no classifier signatures")
			}
			// Categories may be empty (the paper's 2/2/5/7/8 tallies are
			// pinned elsewhere and fully allocated), but any present must
			// be one of the five §8.2 categories.
			for _, c := range d.Categories {
				if !validCat[c] {
					t.Errorf("unknown category %q", c)
				}
			}
			hit := false
			for _, sig := range d.Signatures {
				owner, ok := bySig[sig]
				if !ok || owner.Number != d.Number {
					t.Errorf("signature %q maps to entry #%d, want #%d", sig, owner.Number, d.Number)
				}
				if emitted[sig] {
					hit = true
				}
			}
			if !hit {
				t.Errorf("classifier never emitted any of %v over the corpus", d.Signatures)
			}
			checkBoundary(t, "SinceVersion", d.SinceVersion)
			checkBoundary(t, "FixedIn", d.FixedIn)
			if (d.SinceVersion != "" || d.FixedIn != "") && d.VersionNote == "" {
				t.Error("version boundary without a JIRA/migration-note anchor")
			}
		})
	}

	// The skew registry round-trips through its own index the same way;
	// its signatures are confirmed against live runs by the golden skew
	// matrix, so here only the mapping and annotations are checked.
	skewBySig := inject.SkewBySignature()
	seenID := map[string]bool{}
	for _, d := range inject.SkewRegistry() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			if seenID[d.ID] {
				t.Fatalf("duplicate skew id %s", d.ID)
			}
			seenID[d.ID] = true
			if d.Anchor == "" || d.Title == "" {
				t.Error("skew entry missing anchor or title")
			}
			checkBoundary(t, "Boundary", d.Boundary)
			if d.Boundary == "" {
				t.Error("skew entry has no version boundary")
			}
			if len(d.Signatures) == 0 {
				t.Fatal("skew entry declares no signatures")
			}
			for _, sig := range d.Signatures {
				if owner := skewBySig[sig]; owner.ID != d.ID {
					t.Errorf("skew signature %q maps to %s, want %s", sig, owner.ID, d.ID)
				}
			}
			for _, c := range d.Categories {
				if !validCat[c] {
					t.Errorf("unknown category %q", c)
				}
			}
		})
	}
}

// checkBoundary validates a "system:version" boundary annotation: the
// system is one of the two modeled engines and the version is a plain
// dotted number ordered sensibly against the modeled profiles.
func checkBoundary(t *testing.T, field, boundary string) {
	t.Helper()
	if boundary == "" {
		return
	}
	system, version, ok := strings.Cut(boundary, ":")
	if !ok {
		t.Errorf("%s %q is not system:version", field, boundary)
		return
	}
	if system != "spark" && system != "hive" {
		t.Errorf("%s names unknown system %q", field, system)
	}
	for _, r := range version {
		if (r < '0' || r > '9') && r != '.' {
			t.Errorf("%s version %q is not a dotted number", field, version)
			return
		}
	}
	// A boundary at zero (or at a major version no release reaches) can
	// never be straddled by a pair and would be untestable.
	major, _ := strconv.Atoi(strings.Split(version, ".")[0])
	if strings.Trim(version, "0.") == "" || major >= 999 {
		t.Errorf("%s version %q is outside any plausible range", field, version)
	}
}
