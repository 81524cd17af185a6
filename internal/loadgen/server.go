package loadgen

import "repro/internal/vclock"

// ServerConfig models the service plane: a bounded FIFO queue in front
// of Workers parallel executors with a fixed per-request service time,
// optionally guarded by token-bucket admission control. It is the
// virtual-time twin of the crossd scheduler's admission path (bounded
// queue, 429 + Retry-After, token bucket), which is what makes the
// phase diagram's lessons transferable to the real service.
type ServerConfig struct {
	Workers   int
	QueueCap  int
	ServiceMs int64
	// TokenRate (micro-tokens/sec) and TokenBurst enable token-bucket
	// admission ahead of the queue when TokenRate > 0: a deliberate
	// ceiling below saturation that rejects cheaply instead of queueing
	// into the timeout zone.
	TokenRate  int64
	TokenBurst int64
}

// CapacityRPS returns the server's service capacity in whole requests
// per second.
func (c ServerConfig) CapacityRPS() int64 {
	if c.ServiceMs <= 0 {
		return 0
	}
	return int64(c.Workers) * 1000 / c.ServiceMs
}

// Rejection is a synchronous admission refusal.
type Rejection struct {
	Reason       string // ReasonQueueFull or ReasonThrottled
	RetryAfterMs int64  // server hint: earliest useful retry
}

const nanoPerToken = 1_000_000_000

type serverReq struct {
	done func(completedAtMs int64)
}

// SimServer is the discrete-event service. Not safe for concurrent
// use: all calls happen inside vclock callbacks.
type SimServer struct {
	sim *vclock.Sim
	cfg ServerConfig

	queue []serverReq // FIFO; head is queue[qhead]
	qhead int
	busy  int

	tokensNano   int64
	lastRefillMs int64

	// Served counts completed requests (useful or wasted).
	Served int64
}

// NewSimServer builds a server on the simulator.
func NewSimServer(sim *vclock.Sim, cfg ServerConfig) *SimServer {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	if cfg.ServiceMs < 1 {
		cfg.ServiceMs = 1
	}
	return &SimServer{sim: sim, cfg: cfg, tokensNano: cfg.TokenBurst * nanoPerToken}
}

// QueueLen returns the number of queued (not yet executing) requests.
func (s *SimServer) QueueLen() int { return len(s.queue) - s.qhead }

// RetryAfterMs derives the backpressure hint from the current queue
// depth: the time until the queue as it stands has drained — the same
// derivation internal/serve uses for its 429 Retry-After header.
func (s *SimServer) RetryAfterMs() int64 {
	return (int64(s.QueueLen()) + 1) * s.cfg.ServiceMs / int64(s.cfg.Workers)
}

// Submit offers one request at the current virtual time. On admission
// it returns nil and done fires when service completes — regardless of
// whether the client still cares, which is exactly the wasted-work
// channel metastability feeds on. On rejection it returns the reason
// and hint synchronously and done never fires.
func (s *SimServer) Submit(done func(completedAtMs int64)) *Rejection {
	if rej := s.takeToken(); rej != nil {
		return rej
	}
	if s.QueueLen() >= s.cfg.QueueCap {
		return &Rejection{Reason: ReasonQueueFull, RetryAfterMs: s.RetryAfterMs()}
	}
	s.queue = append(s.queue, serverReq{done: done})
	s.dispatch()
	return nil
}

func (s *SimServer) takeToken() *Rejection {
	if s.cfg.TokenRate <= 0 {
		return nil
	}
	now := s.sim.Now()
	// micro-tokens/sec x elapsed ms = nano-tokens.
	s.tokensNano += (now - s.lastRefillMs) * s.cfg.TokenRate
	s.lastRefillMs = now
	if max := s.cfg.TokenBurst * nanoPerToken; s.tokensNano > max {
		s.tokensNano = max
	}
	if s.tokensNano >= nanoPerToken {
		s.tokensNano -= nanoPerToken
		return nil
	}
	deficit := nanoPerToken - s.tokensNano
	wait := (deficit + s.cfg.TokenRate - 1) / s.cfg.TokenRate // ms, ceil
	if wait < 1 {
		wait = 1
	}
	return &Rejection{Reason: ReasonThrottled, RetryAfterMs: wait}
}

func (s *SimServer) dispatch() {
	for s.busy < s.cfg.Workers && s.QueueLen() > 0 {
		req := s.queue[s.qhead]
		s.queue[s.qhead] = serverReq{}
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qhead = 0
		}
		s.busy++
		s.sim.After(s.cfg.ServiceMs, func() {
			s.busy--
			s.Served++
			req.done(s.sim.Now())
			s.dispatch()
		})
	}
}
