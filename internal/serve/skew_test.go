package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/versions"
)

// smallSkewSpec is a cheap skew job: a handful of CHAR corpus inputs
// over one upgrade pair still exercises the full skew path (four
// engines, both probes, the skew oracle).
func smallSkewSpec() JobSpec {
	return JobSpec{
		Kind:        KindSkew,
		InputPrefix: "char",
		Pairs:       []string{"2.3.0/2.3.9->3.2.1/3.1.2"},
		Parallel:    2,
	}
}

// The skew job end to end: submit, wait, and the result carries the
// machine-readable matrix; an identical resubmission is a cache hit
// with byte-identical bytes and no re-execution.
func TestSkewJobEndToEnd(t *testing.T) {
	s, exec := newTestScheduler(t, SchedulerOptions{})
	job, err := s.Submit(smallSkewSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	first, ok := job.Result()
	if !ok {
		t.Fatalf("skew job produced no result: %+v", job.Status())
	}
	var res JobResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("result is not valid JSON: %v", err)
	}
	if res.Skew == nil {
		t.Fatalf("skew job produced no skew payload: %+v", res)
	}
	if len(res.Skew.Cells) != 1 {
		t.Fatalf("skew matrix has %d cells, want 1", len(res.Skew.Cells))
	}
	cell := res.Skew.Cells[0]
	if cell.Writer.String() != "2.3.0/2.3.9" || cell.Reader.String() != "3.2.1/3.1.2" {
		t.Errorf("cell pair = %s->%s", cell.Writer, cell.Reader)
	}
	// The CHAR inputs cross the SPARK-33480 boundary, so the upgrade
	// pair must confirm at least one skew discrepancy.
	if cell.SkewFailures == 0 || len(cell.SkewIDs) == 0 {
		t.Errorf("upgrade pair over CHAR inputs found no skew: %d failures, ids %v", cell.SkewFailures, cell.SkewIDs)
	}
	again, err := s.Submit(smallSkewSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again)
	if !again.Status().CacheHit {
		t.Error("identical skew resubmission was not a cache hit")
	}
	second, _ := again.Result()
	if !bytes.Equal(first, second) {
		t.Error("cached skew result differs from the original")
	}
	if exec.Executions() != 1 {
		t.Errorf("executor ran %d times, want 1", exec.Executions())
	}
}

// Unknown version profiles must be rejected at admission — at Validate,
// at CacheKey, and at Submit — never silently normalized to a default
// stack. Normalizing would alias two different deployments under one
// cache key and serve one's report for the other.
func TestSkewSpecRejectsUnknownProfiles(t *testing.T) {
	s, exec := newTestScheduler(t, SchedulerOptions{})
	for _, bad := range []JobSpec{
		{Kind: KindSkew, Pairs: []string{"1.6.0/3.1.2->3.2.1/3.1.2"}},
		{Kind: KindSkew, Pairs: []string{"3.2.1/3.1.2->3.2.1/9.9.9"}},
		{Kind: KindSkew, Pairs: []string{"3.2.1/3.1.2", "latest/3.1.2"}},
		{Kind: KindSkew, Pairs: []string{"not-a-pair"}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted unknown profile in %v", bad.Pairs)
		}
		if _, err := bad.CacheKey(); err == nil {
			t.Errorf("CacheKey keyed unknown profile in %v", bad.Pairs)
		}
		if _, err := s.Submit(bad); err == nil {
			t.Errorf("Submit admitted unknown profile in %v", bad.Pairs)
		}
	}
	if exec.Executions() != 0 {
		t.Error("invalid skew specs reached the executor")
	}
}

// Skew cache keys: the version pairs are part of the content address
// (order included — cell order is pair order), the empty pair list is
// the default matrix spelled out, and Parallel stays excluded.
func TestSkewCacheKeySemantics(t *testing.T) {
	base := JobSpec{Kind: KindSkew, Pairs: []string{"3.2.1/3.1.2", "2.3.0/2.3.9->3.2.1/3.1.2"}}
	k1, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Parallel = 8
	if k2, _ := p.CacheKey(); k2 != k1 {
		t.Error("Parallel changed the skew cache key")
	}
	swapped := JobSpec{Kind: KindSkew, Pairs: []string{"2.3.0/2.3.9->3.2.1/3.1.2", "3.2.1/3.1.2"}}
	if k3, _ := swapped.CacheKey(); k3 == k1 {
		t.Error("pair order did not change the skew cache key")
	}
	var defaults []string
	for _, pr := range versions.DefaultPairs() {
		defaults = append(defaults, pr.String())
	}
	implicit := JobSpec{Kind: KindSkew}
	explicit := JobSpec{Kind: KindSkew, Pairs: defaults}
	ki, err := implicit.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ke, _ := explicit.CacheKey(); ke != ki {
		t.Error("default matrix and its explicit spelling hashed differently")
	}
	other := JobSpec{Kind: KindCorpus}
	if ko, _ := other.CacheKey(); ko == ki {
		t.Error("skew and corpus kinds share a cache key")
	}
}
