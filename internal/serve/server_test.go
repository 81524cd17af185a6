package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, opts SchedulerOptions) (*httptest.Server, *Scheduler, *Executor) {
	t.Helper()
	sched, exec := newTestScheduler(t, opts)
	srv := httptest.NewServer(NewServer(sched, ServerOptions{
		Metrics:  opts.Metrics,
		Recorder: opts.Recorder,
		Version:  "test-build",
	}))
	t.Cleanup(srv.Close)
	return srv, sched, exec
}

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

// fetchResult issues one GET /result and returns its code and body.
func fetchResult(ctx context.Context, url, id string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/api/v1/jobs/%s/result", url, id), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getResult fetches the job's result. The server holds the request
// until the job is terminal; only a 202 (the hold elapsed first) asks
// again.
func getResult(t *testing.T, url, id string) []byte {
	t.Helper()
	for {
		code, data, err := fetchResult(context.Background(), url, id)
		if err != nil {
			t.Fatal(err)
		}
		switch code {
		case http.StatusOK:
			return data
		case http.StatusAccepted:
			continue
		}
		t.Fatalf("result returned %d: %s", code, data)
	}
}

// The end-to-end acceptance path: submit (202), wait on the result,
// resubmit the identical spec (200 + cache_hit), and the two result
// bodies are byte-identical while the executor ran exactly once.
func TestServerSubmitResultResubmit(t *testing.T) {
	srv, _, exec := newTestServer(t, SchedulerOptions{})
	spec := smallFuzzSpec()

	resp, st := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold submit returned %d, want 202", resp.StatusCode)
	}
	if st.CacheHit || st.ID == "" {
		t.Fatalf("cold submit status: %+v", st)
	}
	cold := getResult(t, srv.URL, st.ID)

	resp2, st2 := postJob(t, srv.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm submit returned %d, want 200", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("warm submit status: %+v", st2)
	}
	warm := getResult(t, srv.URL, st2.ID)
	if !bytes.Equal(cold, warm) {
		t.Error("cached result differs from cold result")
	}
	if n := exec.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}

	var res JobResult
	if err := json.Unmarshal(warm, &res); err != nil {
		t.Fatal(err)
	}
	if res.ReportSHA == "" || res.Fuzz == nil || !strings.Contains(res.Rendered, "fuzz campaign") {
		t.Errorf("result payload incomplete: sha=%q fuzz=%v", res.ReportSHA, res.Fuzz != nil)
	}
}

// resultServer serves the API over a one-worker scheduler running
// runner. entered receives a token when a /result request reaches the
// server, so a test can act once the request is provably held.
func resultServer(t *testing.T, runner Runner) (srv *httptest.Server, entered chan struct{}) {
	t.Helper()
	sched, _ := newTestScheduler(t, SchedulerOptions{Workers: 1, Executor: runner})
	api := NewServer(sched, ServerOptions{})
	entered = make(chan struct{}, 1)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, entered
}

// /result on a running job holds the request until the job finishes,
// then serves exactly the bytes a later cache-hit /result serves.
func TestServerResultHoldsUntilDone(t *testing.T) {
	runner := newBlockingRunner()
	srv, entered := resultServer(t, runner)
	spec := JobSpec{Kind: KindFuzz, Seed: 500, N: 10}
	_, st := postJob(t, srv.URL, spec)
	<-runner.started

	type reply struct {
		code int
		body []byte
	}
	held := make(chan reply, 1)
	go func() {
		code, body, err := fetchResult(context.Background(), srv.URL, st.ID)
		if err != nil {
			t.Error(err)
		}
		held <- reply{code, body}
	}()
	<-entered
	select {
	case r := <-held:
		close(runner.release)
		t.Fatalf("result answered %d while the job was running: %s", r.code, r.body)
	case <-time.After(50 * time.Millisecond):
	}
	close(runner.release)
	cold := <-held
	if cold.code != http.StatusOK {
		t.Fatalf("held result returned %d: %s", cold.code, cold.body)
	}

	resp, st2 := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusOK || !st2.CacheHit {
		t.Fatalf("resubmission: http %d, %+v", resp.StatusCode, st2)
	}
	if warm := getResult(t, srv.URL, st2.ID); !bytes.Equal(cold.body, warm) {
		t.Error("held result differs from the cache-hit result")
	}
}

// When the hold elapses before the job ends, /result answers 202 with
// the job's status.
func TestServerResultHoldElapses(t *testing.T) {
	defer func(d time.Duration) { resultHold = d }(resultHold)
	resultHold = 20 * time.Millisecond
	runner := newBlockingRunner()
	defer close(runner.release)
	srv, _ := resultServer(t, runner)
	_, st := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 501, N: 10})
	<-runner.started

	code, body, err := fetchResult(context.Background(), srv.URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("elapsed hold returned %d, want 202: %s", code, body)
	}
	var got JobStatus
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("202 body is not a JobStatus: %v", err)
	}
	if got.ID != st.ID || got.State != StateRunning {
		t.Errorf("202 status = %+v, want job %s running", got, st.ID)
	}
}

// errRunner ends every job with err at once.
type errRunner struct{ err error }

func (r errRunner) Execute(context.Context, JobSpec, func(core.Failure)) (*JobResult, error) {
	return nil, r.err
}

// A failed or cancelled job ends the hold with 409 and the job's error.
func TestServerResultConflictForFailedAndCancelled(t *testing.T) {
	for _, tc := range []struct {
		state string
		err   error
	}{
		{StateFailed, errors.New("boom")},
		{StateCancelled, context.Canceled},
	} {
		t.Run(tc.state, func(t *testing.T) {
			srv, _ := resultServer(t, errRunner{tc.err})
			_, st := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 502, N: 10})
			code, body, err := fetchResult(context.Background(), srv.URL, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("job is %s: %s", tc.state, tc.err)
			if code != http.StatusConflict || !strings.Contains(string(body), want) {
				t.Errorf("result returned %d %s, want 409 %q", code, body, want)
			}
		})
	}
}

// A client that gives up releases its held /result handler, so closing
// the server does not wait out the hold.
func TestServerResultReleasedOnDisconnect(t *testing.T) {
	runner := newBlockingRunner()
	defer close(runner.release)
	srv, entered := resultServer(t, runner)
	_, st := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 503, N: 10})
	<-runner.started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := fetchResult(ctx, srv.URL, st.ID)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled result request returned no error")
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(resultHold / 2):
		t.Fatal("server close waited on a handler whose client had gone")
	}
}

// The NDJSON stream carries one event per failure plus a terminal
// event, and a subscriber that connects after completion replays the
// same history.
func TestServerStream(t *testing.T) {
	srv, _, _ := newTestServer(t, SchedulerOptions{})
	_, st := postJob(t, srv.URL, smallFuzzSpec())

	readStream := func() []StreamEvent {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/stream", srv.URL, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("stream content type %q", ct)
		}
		var events []StreamEvent
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var ev StreamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		return events
	}

	live := readStream() // blocks until the job finishes and closes the stream
	if len(live) == 0 {
		t.Fatal("empty stream")
	}
	last := live[len(live)-1]
	if last.Type != StateDone || last.ReportSHA == "" {
		t.Fatalf("terminal event: %+v", last)
	}
	failures := 0
	for _, ev := range live[:len(live)-1] {
		if ev.Type != "failure" || ev.Oracle == "" || ev.Signature == "" {
			t.Fatalf("non-failure mid-stream event: %+v", ev)
		}
		failures++
	}
	if failures == 0 {
		t.Error("fuzz job streamed no failures (seed 5 is known to produce them)")
	}

	replay := readStream() // job is terminal: pure history replay
	if len(replay) != len(live) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(live))
	}
	for i := range replay {
		if replay[i] != live[i] {
			t.Errorf("replay event %d differs: %+v vs %+v", i, replay[i], live[i])
		}
	}
}

// burstRunner emits one failure, waits for burst to close, then emits
// n more failures back to back — more than a subscriber's channel
// buffers — and succeeds.
type burstRunner struct {
	n     int
	burst chan struct{}
}

func (r *burstRunner) Execute(ctx context.Context, spec JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	fail := func(i int) {
		onFailure(core.Failure{Oracle: csi.OracleWriteRead, Signature: "burst", Detail: fmt.Sprint(i)})
	}
	fail(0)
	select {
	case <-r.burst:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for i := 1; i <= r.n; i++ {
		fail(i)
	}
	key, err := spec.CacheKey()
	if err != nil {
		return nil, err
	}
	return &JobResult{Key: key, Kind: spec.Kind, Spec: spec, Rendered: "burst", ReportSHA: core.HashBytes([]byte("burst"))}, nil
}

// stallingWriter is a stream client that stops reading: its first
// Write signals first and then blocks until release closes.
type stallingWriter struct {
	header  http.Header
	first   chan struct{}
	release chan struct{}
	stalled bool
	body    bytes.Buffer
}

func (w *stallingWriter) Header() http.Header { return w.header }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Write(p []byte) (int, error) {
	if !w.stalled {
		w.stalled = true
		close(w.first)
		<-w.release
	}
	return w.body.Write(p)
}

// A burst of failures larger than the live channel's buffer, read by a
// client that stalls before reading, still reaches the client whole:
// every event exactly once, in Seq order, equal to the replay.
func TestServerStreamLosslessUnderBurst(t *testing.T) {
	runner := &burstRunner{n: 200, burst: make(chan struct{})}
	sched, _ := newTestScheduler(t, SchedulerOptions{Workers: 1, Executor: runner})
	srv := NewServer(sched, ServerOptions{Version: "test-build"})
	job, err := sched.Submit(JobSpec{Kind: KindFuzz, Seed: 400, N: 10})
	if err != nil {
		t.Fatal(err)
	}

	w := &stallingWriter{header: http.Header{}, first: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/jobs/"+job.ID+"/stream", nil))
	}()
	<-w.first // the handler has subscribed and is stuck writing event 0
	close(runner.burst)
	<-job.Done() // the whole burst went out while the client stalled
	close(w.release)
	<-served

	var live []StreamEvent
	sc := bufio.NewScanner(&w.body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		live = append(live, ev)
	}
	replay, _ := job.Subscribe()
	if want := runner.n + 2; len(replay) != want {
		t.Fatalf("history has %d events, want %d", len(replay), want)
	}
	if len(live) != len(replay) {
		t.Fatalf("live stream has %d events, replay has %d", len(live), len(replay))
	}
	for i := range live {
		if live[i].Seq != i {
			t.Fatalf("live event %d has seq %d", i, live[i].Seq)
		}
		if live[i] != replay[i] {
			t.Errorf("live event %d differs from replay: %+v vs %+v", i, live[i], replay[i])
		}
	}
	if last := live[len(live)-1]; last.Type != StateDone {
		t.Errorf("terminal event: %+v", last)
	}
}

// Queue overload surfaces as 429 + Retry-After; draining as 503 on
// both submit and healthz.
func TestServerBackpressureAndDrain(t *testing.T) {
	runner := newBlockingRunner()
	srv, sched, _ := newTestServer(t, SchedulerOptions{Workers: 1, QueueDepth: 1, Executor: runner})

	if resp, _ := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 300, N: 10}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d", resp.StatusCode)
	}
	<-runner.started
	if resp, _ := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 301, N: 10}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d", resp.StatusCode)
	}
	resp, _ := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 302, N: 10})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}

	close(runner.release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sched.Drain(ctx)

	if resp, _ := postJob(t, srv.URL, JobSpec{Kind: KindFuzz, Seed: 303, N: 10}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit returned %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining returned %d, want 503", hr.StatusCode)
	}
}

func TestServerRejectsMalformedSubmissions(t *testing.T) {
	srv, _, exec := newTestServer(t, SchedulerOptions{})
	for _, body := range []string{
		`{"kind":"fuzz","n":10,"bogus_field":1}`, // unknown field
		`{"kind":"warp","n":10}`,                 // unknown kind
		`not json`,
		// The plane-owned checks crossd runs at admission.
		`{"kind":"corpus","families":["bogus"]}`,
		`{"kind":"fuzz","n":10,"confs":-1}`,
		`{"kind":"partition","trials":-3}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q returned %d, want 400", body, resp.StatusCode)
		}
	}
	if exec.Executions() != 0 {
		t.Error("malformed submissions reached the executor")
	}
}

func TestServerStatusAndList(t *testing.T) {
	srv, _, _ := newTestServer(t, SchedulerOptions{})
	_, st := postJob(t, srv.URL, smallFuzzSpec())
	getResult(t, srv.URL, st.ID)

	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var one JobStatus
	json.NewDecoder(resp.Body).Decode(&one)
	resp.Body.Close()
	if one.ID != st.ID || one.State != StateDone || one.Duration <= 0 {
		t.Errorf("status: %+v", one)
	}

	resp, err = http.Get(srv.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list: %+v", list)
	}

	resp, err = http.Get(srv.URL + "/api/v1/jobs/job-999999-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job returned %d, want 404", resp.StatusCode)
	}
}

// /metrics carries the service gauges in Prometheus text form, and the
// cache-hit counter moves on resubmission.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _, _ := newTestServer(t, SchedulerOptions{Metrics: reg})
	spec := smallFuzzSpec()
	_, st := postJob(t, srv.URL, spec)
	getResult(t, srv.URL, st.ID)
	postJob(t, srv.URL, spec) // cache hit

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		obs.MetricCacheHits + " 1",
		obs.MetricCacheMisses + " 1",
		obs.MetricCacheHitRatio + " 0.5",
		obs.MetricJobsSubmitted + `{kind="fuzz"} 2`,
		obs.MetricJobsFinished + `{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
