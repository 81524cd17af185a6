package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// A submission crossd refuses is a wrong output: the run fails rather
// than leaving the job out of its latency and case counts.
func TestRefusedSubmissionFailsTheRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	_, code, err := c.submit(serve.JobSpec{Kind: serve.KindFuzz, Seed: 1, N: crossdFuzzN})
	if code != http.StatusTooManyRequests || err == nil {
		t.Fatalf("refused submission gave http %d, err %v", code, err)
	}

	r := newResult("crossd")
	cases, err := checkServed(r, nil, []served{{arrival: arrival{Kind: "fuzz"}, err: err}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.correct() || r.failed != 1 || cases != 0 {
		t.Fatalf("correct=%t failed=%d cases=%d after a refused job", r.correct(), r.failed, cases)
	}
}
