package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/serve"
)

func scheduleJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	data, err := json.Marshal(crossdSchedule(rand.New(rand.NewSource(seed)), 25*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCrossdScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := scheduleJSON(t, 42), scheduleJSON(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("two schedules from seed 42 differ")
	}
	if bytes.Equal(a, scheduleJSON(t, 43)) {
		t.Fatal("seeds 42 and 43 drew the same schedule")
	}
}

func TestCrossdScheduleMix(t *testing.T) {
	window := 25 * time.Second
	for seed := int64(1); seed <= 20; seed++ {
		s := crossdSchedule(rand.New(rand.NewSource(seed)), window)
		if len(s) != int(crossdRate*window.Seconds()) {
			t.Fatalf("seed %d: %d arrivals, want %g", seed, len(s), crossdRate*window.Seconds())
		}
		counts := map[string]int{}
		for i, a := range s {
			counts[a.Kind]++
			if a.Due < 0 || a.Due >= window || (i > 0 && a.Due < s[i-1].Due) {
				t.Fatalf("seed %d: arrival %d due at %s, out of order or outside the window", seed, i, a.Due)
			}
			if err := a.Spec.Validate(); err != nil {
				t.Fatalf("seed %d: arrival %d: %v", seed, i, err)
			}
			if a.Kind != "resubmit" {
				continue
			}
			if i == 0 {
				t.Fatalf("seed %d: the first arrival is a resubmission", seed)
			}
			found := false
			for j := max(0, i-crossdRecent); j < i; j++ {
				if specKey(t, s[j].Spec) == specKey(t, a.Spec) {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d: resubmission %d repeats none of the last %d specs", seed, i, crossdRecent)
			}
		}
		for _, m := range crossdMix {
			if want := m.share * float64(len(s)); float64(counts[m.kind]) < want-1 || float64(counts[m.kind]) > want+1 {
				t.Errorf("seed %d: %d %s arrivals, want %g", seed, counts[m.kind], m.kind, want)
			}
		}
	}
}

func specKey(t *testing.T, s serve.JobSpec) string {
	t.Helper()
	k, err := s.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestClusterJobsAreAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) []serve.JobSpec {
		g := &clusterJobs{rng: rand.New(rand.NewSource(seed))}
		// Drawn on demand, past any fixed length.
		out := make([]serve.JobSpec, 5000)
		for i := range out {
			out[i] = g.at(i)
		}
		return out
	}
	enc := func(specs []serve.JobSpec) []byte {
		data, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := draw(7), draw(8)
	if !bytes.Equal(enc(a), enc(draw(7))) {
		t.Fatal("two job sequences from seed 7 differ")
	}
	if bytes.Equal(enc(a), enc(b)) {
		t.Fatal("seeds 7 and 8 drew the same job sequence")
	}
	for start := 0; start < len(a); start += 4 {
		// Every block holds the same campaigns on every seed, three fuzz
		// to one partition, all distinct.
		ka, kb := map[string]int{}, map[string]bool{}
		for k := start; k < start+4; k++ {
			ka[a[k].Kind]++
			kb[specKey(t, b[k])] = true
		}
		if ka[serve.KindFuzz] != 3 || ka[serve.KindPartition] != 1 || len(kb) != 4 {
			t.Fatalf("block %d has kinds %v and %d distinct jobs, want 3 fuzz and 1 partition", start/4, ka, len(kb))
		}
		for k := start; k < start+4; k++ {
			if !kb[specKey(t, a[k])] {
				t.Fatalf("block %d: seed 7 runs a job seed 8 does not", start/4)
			}
		}
	}
}
