package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// stubNode is a worker that admits every submission as job-1 and
// answers the i-th GET of its result with result(i). It logs each
// request as "METHOD path".
type stubNode struct {
	result func(i int, w http.ResponseWriter)

	mu   sync.Mutex
	reqs []string
	gets int
}

func (s *stubNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.reqs = append(s.reqs, r.Method+" "+r.URL.Path)
	i := s.gets
	if r.Method == http.MethodGet {
		s.gets++
	}
	s.mu.Unlock()
	if r.Method == http.MethodPost {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-1", State: serve.StateQueued})
		return
	}
	s.result(i, w)
}

func (s *stubNode) log() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.reqs...)
}

func startStub(t *testing.T, result func(i int, w http.ResponseWriter)) (*stubNode, *NodeClient) {
	t.Helper()
	stub := &stubNode{result: result}
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)
	return stub, &NodeClient{Name: "stub", BaseURL: srv.URL}
}

// A held /result that elapses (202) is re-issued at once: one submit,
// then only result requests — no status polls and no sleep between
// them. Fifty re-issues at even a 10 ms interval would take 500 ms.
func TestNodeClientReissuesHeldResult(t *testing.T) {
	for _, holds := range []int{2, 50} {
		stub, client := startStub(t, func(i int, w http.ResponseWriter) {
			if i < holds {
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-1", State: serve.StateRunning})
				return
			}
			json.NewEncoder(w).Encode(serve.JobResult{Kind: serve.KindFuzz, ReportSHA: "sha"})
		})
		start := time.Now()
		res, err := client.SubmitWait(context.Background(), serve.JobSpec{Kind: serve.KindFuzz, Seed: 1, N: 10})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("holds=%d: %v", holds, err)
		}
		if res.ReportSHA != "sha" {
			t.Errorf("holds=%d: result %+v", holds, res)
		}
		want := []string{"POST /api/v1/jobs"}
		for i := 0; i <= holds; i++ {
			want = append(want, "GET /api/v1/jobs/job-1/result")
		}
		if got := stub.log(); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("holds=%d: requests\n%s\nwant\n%s", holds, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("holds=%d: SubmitWait took %v; re-issues must not sleep", holds, elapsed)
		}
	}
}

// A 409 is the sub-job's own failure, not a node-down verdict: the
// coordinator fails the parent job instead of requeueing the sub-job.
func TestNodeClientConflictIsJobFailure(t *testing.T) {
	_, client := startStub(t, func(_ int, w http.ResponseWriter) {
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]string{"error": "job is failed: boom"})
	})
	spec := serve.JobSpec{Kind: serve.KindFuzz, Seed: 1, N: 10}
	_, err := client.SubmitWait(context.Background(), spec)
	if err == nil || IsNodeDown(err) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("SubmitWait on a 409 = %v, want a job-level error carrying the node's message", err)
	}

	rec := obs.NewRecorder(64)
	coord, err := New(Options{Nodes: map[string]*NodeClient{"stub": client}, SplitFactor: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Execute(context.Background(), spec, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("parent job error = %v, want the sub-job's failure", err)
	}
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvNodeDown || ev.Type == obs.EvSubJobRequeued {
			t.Errorf("a failed sub-job was treated as node death: %+v", ev)
		}
	}
}

// A worker answering for a different content address (another build or
// corpus fingerprint) fails the parent job, naming the node and both
// keys, instead of passing its result off as this spec's.
func TestCoordinatorRejectsResultForAnotherKey(t *testing.T) {
	_, client := startStub(t, func(_ int, w http.ResponseWriter) {
		json.NewEncoder(w).Encode(serve.JobResult{Key: "deadbeef", Kind: serve.KindSweep})
	})
	coord, err := New(Options{Nodes: map[string]*NodeClient{"stub": client}})
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.JobSpec{Kind: serve.KindSweep, InputPrefix: "ts"}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Execute(context.Background(), spec, nil)
	if err == nil {
		t.Fatalf("Execute returned %+v for a worker answering with key deadbeef, want an error", res)
	}
	for _, want := range []string{"stub", "deadbeef", key} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
