package inject

import (
	"fmt"
	"strings"
	"testing"
)

// TestLoadRegistryWellFormed mirrors the skew/partition structural
// checks: sequential L* IDs, anchors that point at a real incident or
// paper, collision-free signatures, and a census boundary — the load
// categories must stay out of the five-category §8.2 list.
func TestLoadRegistryWellFormed(t *testing.T) {
	reg := LoadRegistry()
	if len(reg) < 3 {
		t.Fatalf("load registry has %d entries, want >= 3", len(reg))
	}
	census := Categories()
	bySig := map[string]string{}
	for i, d := range reg {
		if want := fmt.Sprintf("L%d", i+1); d.ID != want {
			t.Errorf("entry %d has ID %s, want %s", i, d.ID, want)
		}
		if d.Anchor == "" || d.Cell == "" || d.Mitigation == "" {
			t.Errorf("%s is missing anchor/cell/mitigation", d.ID)
		}
		if !strings.Contains(d.Cell, "@") {
			t.Errorf("%s cell %q is not a policy @ peak coordinate", d.ID, d.Cell)
		}
		if len(d.Categories) == 0 {
			t.Errorf("%s carries no categories", d.ID)
		}
		for _, c := range d.Categories {
			for _, paper := range census {
				if c == paper {
					t.Errorf("%s claims §8.2 census category %q: load-plane failures must stay out of the paper's count", d.ID, c)
				}
			}
		}
		for _, sig := range d.Signatures {
			if prev, dup := bySig[sig]; dup {
				t.Errorf("signature %q claimed by both %s and %s", sig, prev, d.ID)
			}
			bySig[sig] = d.ID
		}
	}
}
