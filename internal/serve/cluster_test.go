package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakePeers is an in-memory serve.PeerCache for scheduler unit tests.
type fakePeers struct {
	mu      sync.Mutex
	store   map[string][]byte
	fetches int
	offers  int
}

func newFakePeers() *fakePeers { return &fakePeers{store: map[string][]byte{}} }

func (p *fakePeers) Fetch(ctx context.Context, key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fetches++
	data, ok := p.store[key]
	return data, ok
}

func (p *fakePeers) Offer(key string, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offers++
	p.store[key] = append([]byte(nil), data...)
}

func (p *fakePeers) offerCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.offers
}

// runOnce executes the spec on a throwaway scheduler and returns the
// stored result bytes.
func runOnce(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	s, _ := newTestScheduler(t, SchedulerOptions{})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.State != StateDone {
		t.Fatalf("seed run: %+v", st)
	}
	data, _ := job.Result()
	return data
}

// A peer-cache hit must skip execution entirely and serve bytes
// identical to the original run — the distributed-cache half of the
// zero-re-execution reshard property.
func TestPeerCacheHitSkipsExecution(t *testing.T) {
	spec := smallFuzzSpec()
	original := runOnce(t, spec)
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	peers := newFakePeers()
	peers.store[key] = original
	metrics := obs.NewRegistry()
	s, exec := newTestScheduler(t, SchedulerOptions{Peers: peers, Metrics: metrics})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	st := job.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("peer hit should finish done as a cache hit: %+v", st)
	}
	if n := exec.Executions(); n != 0 {
		t.Errorf("peer hit executed %d times, want 0", n)
	}
	data, _ := job.Result()
	if !bytes.Equal(data, original) {
		t.Error("peer-served result is not byte-identical to the original")
	}
	if got := metrics.Counter(obs.MetricPeerCacheHits).Value(); got != 1 {
		t.Errorf("peer hit counter = %v, want 1", got)
	}

	// And the local cache was warmed: resubmission stays at 0 executions
	// without another peer fetch.
	before := peers.fetches
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again)
	if n := exec.Executions(); n != 0 {
		t.Errorf("resubmission after peer hit executed %d times", n)
	}
	if peers.fetches != before {
		t.Errorf("resubmission probed peers again (local cache not warmed)")
	}
}

// A peer miss falls through to local execution and offers the computed
// result back to the tier (write-through to the key's owner).
func TestPeerCacheMissExecutesAndOffers(t *testing.T) {
	spec := smallFuzzSpec()
	peers := newFakePeers()
	metrics := obs.NewRegistry()
	s, exec := newTestScheduler(t, SchedulerOptions{Peers: peers, Metrics: metrics})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.State != StateDone || st.CacheHit {
		t.Fatalf("peer miss should execute: %+v", st)
	}
	if n := exec.Executions(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
	if got := metrics.Counter(obs.MetricPeerCacheMisses).Value(); got != 1 {
		t.Errorf("peer miss counter = %v, want 1", got)
	}
	if peers.offerCount() != 1 {
		t.Fatalf("offers = %d, want 1 (write-through after execution)", peers.offerCount())
	}
	key, _ := spec.CacheKey()
	data, _ := job.Result()
	if !bytes.Equal(peers.store[key], data) {
		t.Error("offered bytes differ from the stored result")
	}
}

// A peer returning bytes for the wrong key (a confused or poisoned
// tier) must be ignored: the scheduler validates the payload's content
// address before trusting it.
func TestPeerCacheRejectsMismatchedResult(t *testing.T) {
	spec := smallFuzzSpec()
	other := spec
	other.Seed = 6
	wrong := runOnce(t, other)

	key, _ := spec.CacheKey()
	peers := newFakePeers()
	peers.store[key] = wrong // bytes decode fine but carry the other key
	s, exec := newTestScheduler(t, SchedulerOptions{Peers: peers})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.State != StateDone || st.CacheHit {
		t.Fatalf("mismatched peer result must not short-circuit: %+v", st)
	}
	if n := exec.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1 (recompute after rejecting peer bytes)", n)
	}
}

// A peer's bytes for the right key must also carry what stamp sets: a
// report hash that is the sha256 of the rendered report, and a spec
// that hashes to the key. A result with a forged hash, or another
// spec's result relabelled with the key, is ignored like a wrong key.
func TestPeerCacheRejectsForgedResult(t *testing.T) {
	spec := smallFuzzSpec()
	key, _ := spec.CacheKey()
	other := spec
	other.Seed = 6
	for _, tc := range []struct {
		name   string
		forge  func(*JobResult)
		source JobSpec
	}{
		{"wrong-sha", func(r *JobResult) { r.ReportSHA = core.HashBytes([]byte(r.Rendered + "\n")) }, spec},
		{"foreign-spec", func(r *JobResult) { r.Key = key }, other},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res JobResult
			if err := json.Unmarshal(runOnce(t, tc.source), &res); err != nil {
				t.Fatal(err)
			}
			tc.forge(&res)
			forged, err := marshalResult(&res)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := validPeerResult(key, forged); ok {
				t.Fatal("validPeerResult accepts the forged result")
			}
			peers := newFakePeers()
			peers.store[key] = forged
			s, exec := newTestScheduler(t, SchedulerOptions{Peers: peers})
			job, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, job)
			if st := job.Status(); st.State != StateDone || st.CacheHit {
				t.Fatalf("forged peer result must not short-circuit: %+v", st)
			}
			if n := exec.Executions(); n != 1 {
				t.Errorf("executions = %d, want 1 (recompute after rejecting peer bytes)", n)
			}
		})
	}
}

// Two sub-jobs split from different parent campaigns share a cache key
// when their specs coincide, and the scheduler coalesces them into one
// execution — byKey is keyed on the content address alone, not on any
// parent identity.
func TestSubJobsOfDifferentParentsCoalesce(t *testing.T) {
	runner := newBlockingRunner()
	s, _ := newTestScheduler(t, SchedulerOptions{Executor: runner, Workers: 1})

	// The same seed-range shard, as two parents would cut it: parent A
	// splitting [0,40) into [0,20)+[20,40), parent B splitting [20,60)
	// into [20,40)+[40,60). The [20,40) shard is shared.
	shard := JobSpec{Kind: KindFuzz, Seed: 5, N: 20, From: 20, Shard: true}
	first, err := s.Submit(shard)
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started // the shard is executing, not yet cached

	second, err := s.Submit(shard)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("concurrent identical shards got distinct jobs %s and %s", first.ID, second.ID)
	}
	close(runner.release)
	waitDone(t, first)
	waitDone(t, second)
	select {
	case <-runner.started:
		t.Error("coalesced shard executed a second time")
	default:
	}
}

// The peer-fetch endpoints: GET serves raw cached bytes, PUT validates
// the payload against the key before accepting it.
func TestCacheEndpoints(t *testing.T) {
	spec := smallFuzzSpec()
	key, _ := spec.CacheKey()

	sched, _ := newTestScheduler(t, SchedulerOptions{})
	srv := httptest.NewServer(NewServer(sched, ServerOptions{}))
	defer srv.Close()

	job, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	want, _ := job.Result()

	resp, err := http.Get(srv.URL + "/api/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("cache GET: status %d, %d bytes (want 200 with the stored result)", resp.StatusCode, len(got))
	}

	// A miss is 404; a malformed key is 400.
	missKey := strings.Repeat("0", len(key))
	for path, wantCode := range map[string]int{
		"/api/v1/cache/" + missKey:    http.StatusNotFound,
		"/api/v1/cache/not-a-key":     http.StatusBadRequest,
		"/api/v1/cache/" + key + "..": http.StatusBadRequest,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
	}

	// PUT into a fresh node, then read it back.
	sched2, exec2 := newTestScheduler(t, SchedulerOptions{})
	srv2 := httptest.NewServer(NewServer(sched2, ServerOptions{}))
	defer srv2.Close()

	put := func(path string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, srv2.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("/api/v1/cache/"+key, want); code != http.StatusNoContent {
		t.Fatalf("cache PUT: status %d, want 204", code)
	}
	// A poisoning attempt — valid JSON under the wrong key — is refused.
	if code := put("/api/v1/cache/"+missKey, want); code != http.StatusBadRequest {
		t.Errorf("mismatched PUT accepted: status %d, want 400", code)
	}
	if code := put("/api/v1/cache/"+key, []byte("not json")); code != http.StatusBadRequest {
		t.Errorf("garbage PUT accepted: status %d, want 400", code)
	}

	// The planted entry now serves a submission with zero executions.
	job2, err := sched2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job2)
	if st := job2.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("submission after peer PUT: %+v", st)
	}
	if n := exec2.Executions(); n != 0 {
		t.Errorf("peer-planted entry still executed %d times", n)
	}
	var res JobResult
	data, _ := job2.Result()
	if err := json.Unmarshal(data, &res); err != nil || res.Key != key {
		t.Errorf("served result invalid: err=%v key=%s", err, res.Key)
	}
}
