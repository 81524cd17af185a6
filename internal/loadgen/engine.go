package loadgen

import (
	"fmt"

	"repro/internal/csi"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// systemLoadgen tags the engine's spans: load generation is a client
// plane above the service under test.
const systemLoadgen csi.System = "loadgen"

// LatencyBucketsMs are the histogram bounds for user-perceived session
// latency: wide enough to cover backoff-dominated completions.
var LatencyBucketsMs = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Client modes.
const (
	ModeOpen   = "open"   // arrivals follow the curve regardless of outcomes
	ModeClosed = "closed" // a fixed population; each client waits, thinks, reissues
)

// ClientConfig models the client plane of one cell.
type ClientConfig struct {
	Mode      string // ModeOpen (default) or ModeClosed
	Clients   int    // closed-loop population size
	ThinkMs   int64  // closed-loop think time between sessions
	TimeoutMs int64  // per-attempt deadline; expiry is a failure even if the server later completes
	Policy    RetryPolicy
	Breaker   BreakerConfig
}

// EngineConfig is one cell of the phase diagram: a curve, a client
// population, and a server, on one virtual clock.
type EngineConfig struct {
	Seed      uint64
	Curve     Curve
	HorizonMs int64
	WindowMs  int64 // stats window (default 1000)
	Server    ServerConfig
	Client    ClientConfig

	// Arrivals overrides the generated schedule. The phase-diagram
	// runner passes the same slice to every policy row so the
	// collapse-vs-recovery comparison runs on a byte-identical
	// schedule.
	Arrivals []int64

	// MaxEvents bounds the discrete-event budget (0 = derived from the
	// schedule). Exhaustion is an error: it means a retry loop ran away.
	MaxEvents int

	Label   string // cell label stamped onto spans
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// WindowStats aggregates one stats window.
type WindowStats struct {
	FromMs         int64 `json:"from_ms"`
	Arrivals       int64 `json:"arrivals"`
	Attempts       int64 `json:"attempts"`
	Goodput        int64 `json:"goodput"`
	Wasted         int64 `json:"wasted"` // completions after the client's deadline
	Timeouts       int64 `json:"timeouts"`
	RejectQueue    int64 `json:"reject_queue"`
	RejectThrottle int64 `json:"reject_throttle"`
	BreakerShed    int64 `json:"breaker_shed"`
	GiveUps        int64 `json:"give_ups"`
	QueueLen       int   `json:"queue_len"` // sampled at window end
	// MaxBurst is the largest attempt count inside any 100 ms slice of
	// the window: the thundering-herd detector's raw signal.
	MaxBurst int64 `json:"max_burst"`
}

// RunStats is one cell's full outcome.
type RunStats struct {
	Label        string        `json:"label"`
	Windows      []WindowStats `json:"windows"`
	Totals       WindowStats   `json:"totals"`
	P50Ms        float64       `json:"p50_ms"`
	P95Ms        float64       `json:"p95_ms"`
	P99Ms        float64       `json:"p99_ms"`
	BreakerOpens int64         `json:"breaker_opens,omitempty"`
	Events       int           `json:"events"`
}

// Run executes one cell to the horizon. Deterministic: identical
// configs produce identical stats on every platform.
func Run(cfg EngineConfig) (*RunStats, error) {
	if cfg.Curve == nil {
		return nil, fmt.Errorf("loadgen: engine needs a curve")
	}
	if cfg.Client.Policy == nil {
		return nil, fmt.Errorf("loadgen: engine needs a retry policy")
	}
	if cfg.HorizonMs <= 0 {
		return nil, fmt.Errorf("loadgen: horizon must be positive, got %d", cfg.HorizonMs)
	}
	if cfg.WindowMs <= 0 {
		cfg.WindowMs = 1000
	}
	if cfg.Client.TimeoutMs <= 0 {
		cfg.Client.TimeoutMs = 300
	}
	mode := cfg.Client.Mode
	if mode == "" {
		mode = ModeOpen
	}
	if mode != ModeOpen && mode != ModeClosed {
		return nil, fmt.Errorf("loadgen: unknown client mode %q (want %s or %s)", mode, ModeOpen, ModeClosed)
	}
	if mode == ModeClosed && cfg.Client.Clients < 1 {
		return nil, fmt.Errorf("loadgen: closed-loop mode needs clients > 0")
	}

	sim := vclock.New()
	server := NewSimServer(sim, cfg.Server)
	breaker := NewBreaker(cfg.Client.Breaker)
	hist := cfg.Metrics.Histogram(obs.MetricLoadLatencyMs, LatencyBucketsMs, "cell", cfg.Label)
	if hist == nil {
		// The quantile report needs a histogram even when the caller
		// passed no registry; a private one costs nothing.
		hist = obs.NewRegistry().Histogram(obs.MetricLoadLatencyMs, LatencyBucketsMs)
	}

	nWindows := int((cfg.HorizonMs + cfg.WindowMs - 1) / cfg.WindowMs)
	windows := make([]WindowStats, nWindows)
	for i := range windows {
		windows[i].FromMs = int64(i) * cfg.WindowMs
	}
	win := func() *WindowStats {
		i := int(sim.Now() / cfg.WindowMs)
		if i >= nWindows {
			i = nWindows - 1
		}
		return &windows[i]
	}

	// Sub-window burst tracking: attempts per 100 ms slice.
	const burstSliceMs = 100
	var burstSlice, burstCount int64
	attempt := func() {
		w := win()
		w.Attempts++
		cfg.Metrics.Counter(obs.MetricLoadAttempts, "cell", cfg.Label).Inc()
		if slice := sim.Now() / burstSliceMs; slice != burstSlice {
			burstSlice, burstCount = slice, 0
		}
		burstCount++
		if burstCount > w.MaxBurst {
			w.MaxBurst = burstCount
		}
	}

	sessionSeq := int64(0)
	var startSession func(clientID int64)
	var issue func(sess *session)

	scheduleNext := func(sess *session) {
		// Closed loop: the client thinks, then opens a new session.
		if mode != ModeClosed {
			return
		}
		think := cfg.Client.ThinkMs
		if think < 1 {
			think = 1
		}
		id := sess.clientID
		sim.After(think, func() { startSession(id) })
	}

	retryOrGiveUp := func(sess *session, retryAfterMs int64) {
		d := cfg.Client.Policy.Delay(sess.attempt, retryAfterMs, sess.rng)
		if d < 0 {
			win().GiveUps++
			scheduleNext(sess)
			return
		}
		sim.After(d, func() { issue(sess) })
	}

	issue = func(sess *session) {
		sess.attempt++
		attempt()
		now := sim.Now()
		if !breaker.Allow(now) {
			// Fail fast, terminally: a breaker-open error surfaces to
			// the caller instead of re-entering the retry loop. This is
			// the breaker's entire value — without it, every session
			// shed during the open window would re-flood the server the
			// instant the breaker closed, and the half-open probe could
			// never stick (the engine demonstrated exactly that flap
			// before shed became terminal).
			win().BreakerShed++
			scheduleNext(sess)
			return
		}
		// Per-attempt in-flight state: a retry may already be running
		// when an earlier, abandoned request completes, and that orphan
		// must count as wasted work — never as the new attempt's
		// response.
		att := &inflight{}
		if rej := server.Submit(func(completedAt int64) {
			if att.timedOut {
				win().Wasted++
				return
			}
			att.timer.Stop()
			lat := completedAt - sess.firstMs
			w := win()
			w.Goodput++
			hist.Observe(float64(lat))
			cfg.Metrics.Counter(obs.MetricLoadGoodput, "cell", cfg.Label).Inc()
			breaker.Record(completedAt, true)
			scheduleNext(sess)
		}); rej != nil {
			w := win()
			if rej.Reason == ReasonThrottled {
				w.RejectThrottle++
			} else {
				w.RejectQueue++
			}
			cfg.Metrics.Counter(obs.MetricLoadRejected, "cell", cfg.Label, "reason", rej.Reason).Inc()
			breaker.Record(now, false)
			retryOrGiveUp(sess, rej.RetryAfterMs)
			return
		}
		att.timer = sim.After(cfg.Client.TimeoutMs, func() {
			att.timedOut = true
			win().Timeouts++
			breaker.Record(sim.Now(), false)
			retryOrGiveUp(sess, 0)
		})
	}

	startSession = func(clientID int64) {
		if sim.Now() >= cfg.HorizonMs {
			return
		}
		sessionSeq++
		win().Arrivals++
		sess := &session{
			clientID: clientID,
			firstMs:  sim.Now(),
			rng:      fuzzgen.NewRand(fuzzgen.DeriveSeed(cfg.Seed, int(sessionSeq))),
		}
		issue(sess)
	}

	// Seed the arrival process.
	arrivals := cfg.Arrivals
	if mode == ModeOpen {
		if arrivals == nil {
			arrivals = Schedule(cfg.Seed, cfg.Curve, cfg.HorizonMs)
		}
		for _, at := range arrivals {
			at := at
			sim.After(at, func() { startSession(-1) })
		}
	} else {
		// Closed loop: stagger the population over the first second so
		// client think cycles do not phase-lock from the start.
		rng := fuzzgen.NewRand(cfg.Seed)
		for c := 0; c < cfg.Client.Clients; c++ {
			id := int64(c)
			sim.After(int64(rng.Intn(1000)), func() { startSession(id) })
		}
	}

	// Window-end queue sampling.
	for i := 1; i <= nWindows; i++ {
		i := i
		at := int64(i) * cfg.WindowMs
		if at > cfg.HorizonMs {
			at = cfg.HorizonMs
		}
		// Sample after every same-instant event: schedule one tick at
		// the window edge; ties run in scheduling order, and these are
		// scheduled last for their instant only relative to earlier
		// inserts, so sample the *previous* window's end state.
		sim.After(at-1, func() { windows[i-1].QueueLen = server.QueueLen() })
	}

	// Per-phase spans: virtual-time intervals with outcome attributes.
	type phaseSpan struct {
		span  *obs.Span
		start int64
	}
	if cfg.Tracer != nil {
		for _, p := range cfg.Curve.Phases(cfg.HorizonMs) {
			if p.ToMs <= p.FromMs {
				continue
			}
			p := p
			ps := &phaseSpan{}
			sim.After(p.FromMs, func() {
				ps.span = cfg.Tracer.Span(nil, systemLoadgen, csi.ControlPlane, "load/"+p.Name)
				ps.span.Set("cell", cfg.Label).Set("from_ms", fmt.Sprint(p.FromMs)).Set("to_ms", fmt.Sprint(p.ToMs))
				if p.Overload {
					ps.span.Set("overload", "true")
				}
			})
			end := p.ToMs
			if end > cfg.HorizonMs {
				end = cfg.HorizonMs
			}
			sim.After(end-1, func() {
				if ps.span != nil {
					ps.span.Set("queue_len_at_end", fmt.Sprint(server.QueueLen()))
					ps.span.End()
				}
			})
		}
	}

	budget := cfg.MaxEvents
	if budget <= 0 {
		// Every session costs at most attempts x (issue + reject/timeout
		// + completion + retry timer) events plus scheduling overhead.
		perSession := 1
		switch p := cfg.Client.Policy.(type) {
		case Naive:
			perSession = p.MaxAttempts
		case CappedBackoff:
			perSession = p.MaxAttempts
		}
		n := len(arrivals)
		if mode == ModeClosed {
			n = cfg.Client.Clients * int(cfg.HorizonMs/(cfg.Client.ThinkMs+1)+1)
		}
		budget = (n + 1) * (perSession + 2) * 6
		if budget < 1_000_000 {
			budget = 1_000_000
		}
	}
	n, exhausted := sim.RunLimit(cfg.HorizonMs, budget)
	if exhausted {
		return nil, fmt.Errorf("loadgen: cell %q exhausted its %d-event budget at t=%dms — runaway retry loop", cfg.Label, budget, sim.Now())
	}

	stats := &RunStats{Label: cfg.Label, Windows: windows, Events: n}
	for _, w := range windows {
		stats.Totals.Arrivals += w.Arrivals
		stats.Totals.Attempts += w.Attempts
		stats.Totals.Goodput += w.Goodput
		stats.Totals.Wasted += w.Wasted
		stats.Totals.Timeouts += w.Timeouts
		stats.Totals.RejectQueue += w.RejectQueue
		stats.Totals.RejectThrottle += w.RejectThrottle
		stats.Totals.BreakerShed += w.BreakerShed
		stats.Totals.GiveUps += w.GiveUps
		if w.MaxBurst > stats.Totals.MaxBurst {
			stats.Totals.MaxBurst = w.MaxBurst
		}
	}
	stats.Totals.QueueLen = server.QueueLen()
	stats.P50Ms = hist.Quantile(0.50)
	stats.P95Ms = hist.Quantile(0.95)
	stats.P99Ms = hist.Quantile(0.99)
	if breaker != nil {
		stats.BreakerOpens = breaker.Opens
	}
	return stats, nil
}

// session is one user interaction: the attempt loop from first issue
// to OK or give-up.
type session struct {
	clientID int64
	firstMs  int64
	attempt  int
	rng      *fuzzgen.Rand
}

// inflight is one accepted request's client-side state. It outlives
// the attempt that issued it: the server completes orphaned requests
// after the client has timed out and moved on.
type inflight struct {
	timer    *vclock.Timer
	timedOut bool
}
