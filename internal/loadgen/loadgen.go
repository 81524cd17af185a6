// Package loadgen is the metastable-failure workload engine: a
// deterministic open-loop/closed-loop load generator over the
// internal/vclock discrete-event simulator.
//
// The paper's thesis is that cross-system failures emerge only when
// systems are exercised *together* under realistic interaction
// patterns. The data-plane harness injects wrong *values*; the
// partition plane injects wrong *views*; this package injects wrong
// *load*: retry storms, thundering herds, and metastable collapse —
// the failure mode where a client plane and a service plane each work
// in isolation and fail when connected, and where the failure outlives
// the trigger that started it (Bronson et al., HotOS '21; Huang et
// al., OSDI '22).
//
// The model is the classic timeout-retry amplification loop:
//
//   - an open-loop arrival process (a splitmix64-seeded curve:
//     constant, ramp, spike, or diurnal) offers new sessions;
//   - each session issues a request against a bounded-queue server
//     with fixed per-request service time and optional admission
//     control (token bucket + queue-depth rejection);
//   - the client gives up on a request after a timeout, but the server
//     keeps processing the orphaned request — wasted work;
//   - failed attempts retry under a per-population retry policy
//     (naive immediate, capped exponential backoff with or without
//     full jitter) behind an optional circuit breaker.
//
// Once queueing delay exceeds the client timeout, every completion is
// wasted and every arrival becomes MaxAttempts arrivals: the system
// sustains overload at a base rate it previously served with ease.
// That hysteresis is metastability, and the phase-diagram runner
// (RunPhaseDiagram) maps exactly where it lives in the (load, policy)
// plane — and shows the identical arrival schedule recovering when
// backoff, jitter, and a breaker shed the amplified load.
//
// Everything is deterministic: arrivals are a pure function of
// (seed, curve, horizon); per-session retry jitter derives from
// (seed, session); all state mutates inside single-threaded vclock
// callbacks; reports render from slices in a fixed order. A campaign's
// Render/Hash is bit-identical across -parallel settings and repeated
// runs, which is what lets CI pin a seed-42 phase diagram as a golden.
package loadgen

// Outcome labels for a finished session, in the order they are
// rendered.
const (
	// OutcomeOK: a response arrived within the client timeout.
	OutcomeOK = "ok"
	// OutcomeGiveUp: the retry policy exhausted its attempts.
	OutcomeGiveUp = "give_up"
)

// Attempt-failure reasons.
const (
	ReasonTimeout   = "timeout"    // accepted, but no response within the deadline
	ReasonQueueFull = "queue_full" // rejected by queue-depth admission
	ReasonThrottled = "throttled"  // rejected by the token bucket
	ReasonBreaker   = "breaker"    // shed client-side by the open circuit breaker
)

// Classification of one phase-diagram cell.
const (
	// ClassStable: no collapsed window anywhere, even at peak load —
	// the server tracked the offered curve end to end.
	ClassStable = "stable"
	// ClassRecovering: goodput collapsed under the perturbation but
	// the tail of the horizon is healthy again.
	ClassRecovering = "recovering"
	// ClassMetastable: goodput is still collapsed in the tail of the
	// horizon, long after the load spike ended — the failure is
	// self-sustaining.
	ClassMetastable = "metastable"
)

// Signatures the classifier can attach to a cell. Each maps onto an
// inject.LoadRegistry entry (round-tripped by tests both ways, like
// the D*/S*/P* families).
const (
	// SigMetastableCollapse: the tail windows stay collapsed after the
	// trigger is gone.
	SigMetastableCollapse = "metastable-collapse"
	// SigRetryStorm: post-spike attempt amplification sustained at 3x
	// the offered arrivals or more.
	SigRetryStorm = "retry-storm"
	// SigThunderingHerd: retries cluster into synchronized bursts (a
	// high peak-to-mean attempt ratio at sub-window resolution with a
	// jitter-free policy).
	SigThunderingHerd = "thundering-herd"
)
