package fuzzgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/inject"
)

// corpusDir is the repo-level discrepancy regression corpus.
const corpusDir = "../../testdata/fuzzcorpus"

// replay executes a persisted reproducer and reports whether its
// recorded signature is still detected.
func replay(r *Reproducer) (bool, error) {
	cp := cloneCase(r.Case)
	res, err := Execute(&cp, 1)
	if err != nil {
		return false, err
	}
	for _, f := range res.Failures {
		if f.Signature == r.Signature {
			return true, nil
		}
	}
	return false, nil
}

// TestRegressionCorpusReplays is the forever-test: every reproducer a
// past campaign promoted must still fail with its recorded signature.
// A change that "fixes" one of these should consciously delete the
// file, not silently stop detecting the discrepancy.
func TestRegressionCorpusReplays(t *testing.T) {
	corpus, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("regression corpus is empty — expected the seeded reproducers")
	}
	known := inject.BySignature()
	for _, r := range corpus {
		r := r
		t.Run(r.Signature, func(t *testing.T) {
			if _, ok := known[r.Signature]; ok {
				t.Errorf("corpus entry %q duplicates a Figure-6 registry signature", r.Signature)
			}
			ok, err := replay(r)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("reproducer no longer detects %q: %s", r.Signature, summarizeCase(r.Case))
			}
			if r.MinimizedSize > r.OriginalSize {
				t.Errorf("minimized size %d > original %d", r.MinimizedSize, r.OriginalSize)
			}
		})
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := &Reproducer{
		Signature:     "test-sig",
		Detail:        "example",
		OriginalSize:  10,
		MinimizedSize: 4,
		Case: Case{
			Seed:        7,
			Columns:     []ColumnSpec{{Name: "C", Type: "INT", Literal: "1", Valid: true}},
			Conf:        map[string]string{"spark.sql.ansi.enabled": "false"},
			Assignments: []Assignment{{Plan: "w_sql_r_sql", Format: "orc"}},
		},
	}
	path, err := WriteReproducer(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "test-sig.json" {
		t.Errorf("file name = %s", filepath.Base(path))
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d reproducers, want 1", len(loaded))
	}
	got := loaded[0]
	if got.Signature != r.Signature || got.Case.Seed != r.Case.Seed ||
		len(got.Case.Columns) != 1 || got.Case.Conf["spark.sql.ansi.enabled"] != "false" {
		t.Errorf("round-trip mismatch: %+v", got)
	}
}

// TestLoadCorpusRejectsUnknownField: decoding is strict, so a typoed
// reproducer field (here "signatur") fails loudly instead of being
// dropped and replaying a half-empty case.
func TestLoadCorpusRejectsUnknownField(t *testing.T) {
	dir := t.TempDir()
	corrupt := []byte(`{
  "signatur": "typo-field",
  "detail": "example",
  "original_size": 10,
  "minimized_size": 4,
  "case": {
    "seed": 7,
    "columns": [{"name": "C", "type": "INT", "literal": "1", "valid": true}],
    "assignments": [{"plan": "w_sql_r_sql", "format": "orc"}]
  }
}`)
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCorpus(dir)
	if err == nil {
		t.Fatal("LoadCorpus accepted a corpus file with an unknown field")
	}
	if !strings.Contains(err.Error(), "corrupt.json") || !strings.Contains(err.Error(), "signatur") {
		t.Errorf("error does not name the file and field: %v", err)
	}
}

// Malformed JSON (not just unknown fields) must also name the file.
func TestLoadCorpusRejectsMalformedJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("LoadCorpus accepted malformed JSON")
	}
}

func TestLoadCorpusMissingDirIsEmpty(t *testing.T) {
	out, err := LoadCorpus(filepath.Join(t.TempDir(), "nope"))
	if err != nil || out != nil {
		t.Errorf("missing dir: out=%v err=%v, want nil/nil", out, err)
	}
}

// TestCampaignDedupsAgainstCorpus: a signature already persisted must
// not be re-shrunk or re-promoted by a later campaign.
func TestCampaignDedupsAgainstCorpus(t *testing.T) {
	res, err := RunCampaign(Options{Seed: 2, N: 600, Parallel: 4, CorpusDir: corpusDir})
	if err != nil {
		t.Fatal(err)
	}
	existing, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	persisted := map[string]bool{}
	for _, r := range existing {
		persisted[r.Signature] = true
	}
	for _, r := range res.Reproducers {
		if persisted[r.Signature] {
			t.Errorf("campaign re-minimized already-persisted signature %q", r.Signature)
		}
	}
}

// FuzzLoadCorpus asserts corpus decoding is total: LoadCorpus rejects a
// malformed file with an error, and every reproducer it accepts
// executes, failing or not, without panicking. Seeded from the
// regression corpus.
func FuzzLoadCorpus(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no corpus seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "case.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		corpus, err := LoadCorpus(dir)
		if err != nil {
			return
		}
		for _, r := range corpus {
			cp := cloneCase(r.Case)
			_, _ = Execute(&cp, 1)
		}
	})
}
