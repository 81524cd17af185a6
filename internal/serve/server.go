package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Server is the crossd HTTP API over a Scheduler:
//
//	POST /api/v1/jobs             submit a JobSpec -> JobStatus
//	                              (202 queued, 200 cache hit/coalesced,
//	                               400 invalid, 429 queue full + Retry-After,
//	                               503 draining)
//	GET  /api/v1/jobs             list job statuses, newest first
//	GET  /api/v1/jobs/{id}        one job's status
//	GET  /api/v1/jobs/{id}/result held until the job is terminal: 200 with
//	                              the JobResult (byte-identical for cache
//	                              hits), 409 failed or cancelled, 202 with
//	                              the status if still running after 10 s
//	GET  /api/v1/jobs/{id}/stream NDJSON: one event per oracle failure
//	                              as batches complete, then a terminal event
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 JSON status+version (200) or "draining" (503)
//	GET  /debug/events            flight-recorder replay (?job=ID, ?n=N)
//	GET  /debug/pprof/...         the standard net/http/pprof handlers
type Server struct {
	sched *Scheduler
	opts  ServerOptions
	mux   *http.ServeMux
}

// ServerOptions configure the observability surface of the API.
type ServerOptions struct {
	// Metrics backs /metrics (nil = 404).
	Metrics *obs.Registry
	// Recorder backs /debug/events (nil = 404). Point it at the same
	// recorder the scheduler and cache write to.
	Recorder *obs.Recorder
	// Version is the build identity reported by /healthz (for example
	// buildinfo.Get().String()); empty omits the field.
	Version string
	// Cluster, when non-nil, is mounted at GET /cluster — on a
	// coordinator node it serves the cluster-wide aggregated metrics
	// and membership view.
	Cluster http.Handler
}

// NewServer wires the API over a scheduler.
func NewServer(sched *Scheduler, opts ServerOptions) *Server {
	s := &Server{sched: sched, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /api/v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /api/v1/cache/{key}", s.handleCachePut)
	if opts.Cluster != nil {
		s.mux.Handle("GET /cluster", opts.Cluster)
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding job spec: %v", err)})
		return
	}
	job, err := s.sched.Submit(spec)
	switch {
	case err == ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err == ErrQueueFull || err == ErrThrottled:
		// Backpressure: the hint scales with the backlog, so a client
		// honoring Retry-After naturally spreads a storm instead of
		// hammering a full queue every second.
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	st := job.Status()
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK // served from cache, result already available
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID > statuses[j].ID })
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

// resultHold bounds how long GET /result holds a request for a job that
// is not yet terminal before answering 202 with its status. It must stay
// below the cluster NodeClient's 30 s client timeout: that timeout is the
// coordinator's only detector for a black-holed worker, and a hold at or
// above it would make a healthy worker holding a long sub-job look dead.
var resultHold = 10 * time.Second

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	hold := time.NewTimer(resultHold)
	defer hold.Stop()
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return
	case <-hold.C:
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	data, done := job.Result()
	if !done {
		st := job.Status()
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job is %s: %s", st.State, st.Error)})
		return
	}
	// Serve the stored bytes verbatim: a cached result is
	// byte-identical to the execution that produced it.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	write := func(ev StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	// The live channel drops events when this reader falls behind a
	// burst; next is the Seq owed to the client, and any gap (or a tail
	// lost before the channel closed) is refilled from the job's
	// history, so a live stream equals the replay.
	next := 0
	send := func(evs []StreamEvent) bool {
		for _, ev := range evs {
			if ev.Seq < next {
				continue
			}
			if !write(ev) {
				return false
			}
			next = ev.Seq + 1
		}
		return true
	}
	history, live := job.Subscribe()
	if !send(history) {
		return
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				send(job.eventsFrom(next))
				return
			}
			batch := []StreamEvent{ev}
			if ev.Seq > next {
				batch = job.eventsFrom(next)
			}
			if !send(batch) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleCacheGet serves a finished result straight from the node's
// content-addressed cache — the peer-fetch side of the distributed
// cache tier. 404 is a plain miss, not an error.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed cache key"})
		return
	}
	data, ok := s.sched.opts.Cache.Get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "cache miss"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// maxCachePutBytes bounds an accepted cache offer; the largest real
// result (a full skew matrix) is well under a megabyte.
const maxCachePutBytes = 64 << 20

// handleCachePut accepts a peer's write-through offer: the bytes must
// decode as a JobResult whose content address matches the path key, so
// a confused peer cannot poison the tier.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed cache key"})
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxCachePutBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	if len(data) > maxCachePutBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "cache entry too large"})
		return
	}
	if _, ok := validPeerResult(key, data); !ok {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body is not a JobResult for key " + key})
		return
	}
	if err := s.sched.opts.Cache.Put(key, data); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.Metrics == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.opts.Metrics.WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.sched.mu.Lock()
	draining := s.sched.draining
	s.sched.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Version string `json:"version,omitempty"`
	}{Status: "ok", Version: s.opts.Version})
}

// eventsBody is the /debug/events response: the flight recorder's
// retained window (oldest first) plus the lifetime event count, so a
// reader can tell how much history fell off the ring.
type eventsBody struct {
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"`
}

func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Recorder == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	events := s.opts.Recorder.Events()
	if job := r.URL.Query().Get("job"); job != "" {
		filtered := events[:0]
		for _, ev := range events {
			if ev.Job == job {
				filtered = append(filtered, ev)
			}
		}
		events = filtered
	}
	if nstr := r.URL.Query().Get("n"); nstr != "" {
		n, err := strconv.Atoi(nstr)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "n must be a non-negative integer"})
			return
		}
		if n < len(events) {
			events = events[len(events)-n:] // most recent n, still oldest first
		}
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, eventsBody{Total: s.opts.Recorder.Total(), Events: events})
}
