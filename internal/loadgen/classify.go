package loadgen

// The classifier turns one cell's window series into the phase-diagram
// vocabulary: stable / recovering / metastable, plus the failure
// signatures (retry storm, thundering herd, metastable collapse) that
// map onto the inject.LoadRegistry the way D*/S*/P* findings map onto
// theirs.

// Classifier thresholds. They are part of the pinned golden: changing
// one deliberately means regenerating the phase diagram.
const (
	// collapseFrac: a window is collapsed when goodput is below this
	// fraction of the server's per-window capacity while clients are
	// offering at least that capacity — the server is saturated and
	// producing (almost) nothing useful.
	collapseFrac = 0.3
	// tailWindows is how many horizon-final windows the metastability
	// test inspects.
	tailWindows = 5
	// tailCollapsedMin: at least this many tail windows must be
	// collapsed to call the cell metastable.
	tailCollapsedMin = 3
	// stormAmplification: sustained post-overload attempts/arrivals at
	// or above this ratio is a retry storm.
	stormAmplification = 3.0
	// stormWindowsMin: the amplification must hold for this many
	// consecutive post-overload windows.
	stormWindowsMin = 3
	// herdBurstRatio: the largest 100 ms attempt burst in a
	// post-overload window at or above this multiple of the window's
	// mean 100 ms rate marks a synchronized herd (only attributed to
	// jitter-free policies; jitter exists precisely to spread these).
	herdBurstRatio = 4.0
)

// Classification is the classifier's verdict on one cell.
type Classification struct {
	Class string `json:"class"`
	// CollapsedWindows counts collapsed windows over the whole run;
	// TailCollapsed counts them inside the tail.
	CollapsedWindows int `json:"collapsed_windows"`
	TailCollapsed    int `json:"tail_collapsed"`
	// PostAmplification is the attempts/arrivals ratio over the
	// post-overload windows (0 when there are none).
	PostAmplification float64 `json:"post_amplification"`
	// Signatures name the failure modes observed, in the order of the
	// Sig* constants.
	Signatures []string `json:"signatures,omitempty"`
}

// capacityPerWindow returns how many requests the server can serve in
// one stats window.
func capacityPerWindow(server ServerConfig, windowMs int64) float64 {
	return float64(server.CapacityRPS()) * float64(windowMs) / 1000.0
}

// collapsed reports whether one window is collapsed given the per-
// window capacity: demand at or above capacity, goodput far below it.
func collapsed(w WindowStats, capacity float64) bool {
	return float64(w.Attempts) >= capacity && float64(w.Goodput) < collapseFrac*capacity
}

// Classify reduces one cell run to its phase-diagram verdict.
// overloadEndMs is the end of the curve's last deliberate overload
// phase (OverloadEndMs); jittered is the policy's Jittered().
func Classify(stats *RunStats, server ServerConfig, windowMs, overloadEndMs int64, jittered bool) Classification {
	capacity := capacityPerWindow(server, windowMs)
	out := Classification{Class: ClassStable}
	if capacity <= 0 || len(stats.Windows) == 0 {
		return out
	}

	tailStart := len(stats.Windows) - tailWindows
	if tailStart < 0 {
		tailStart = 0
	}
	for i, w := range stats.Windows {
		if collapsed(w, capacity) {
			out.CollapsedWindows++
			if i >= tailStart {
				out.TailCollapsed++
			}
		}
	}

	// Post-overload statistics: everything after the perturbation (or
	// the whole run when the curve has none).
	var postArrivals, postAttempts int64
	stormRun, stormPeak := 0, 0
	herd := false
	for _, w := range stats.Windows {
		// Herd: compare the window's peak 100 ms burst to its mean
		// 100 ms attempt rate, over the whole run — synchronized retry
		// clusters form at the overload's onset, when a whole queue-fill
		// wave times out together and reissues after identical delays.
		if w.Attempts > 0 {
			mean := float64(w.Attempts) / (float64(windowMs) / 100.0)
			if mean > 0 && float64(w.MaxBurst) >= herdBurstRatio*mean && w.MaxBurst >= 20 {
				herd = true
			}
		}
		if w.FromMs < overloadEndMs {
			continue
		}
		postArrivals += w.Arrivals
		postAttempts += w.Attempts
		if w.Arrivals > 0 && float64(w.Attempts) >= stormAmplification*float64(w.Arrivals) {
			stormRun++
			if stormRun > stormPeak {
				stormPeak = stormRun
			}
		} else {
			stormRun = 0
		}
	}
	if postArrivals > 0 {
		out.PostAmplification = float64(postAttempts) / float64(postArrivals)
	}

	switch {
	case out.TailCollapsed >= tailCollapsedMin:
		out.Class = ClassMetastable
	case out.CollapsedWindows > 0:
		out.Class = ClassRecovering
	}

	if out.Class == ClassMetastable {
		out.Signatures = append(out.Signatures, SigMetastableCollapse)
	}
	if stormPeak >= stormWindowsMin {
		out.Signatures = append(out.Signatures, SigRetryStorm)
	}
	if herd && !jittered && out.Class != ClassStable {
		out.Signatures = append(out.Signatures, SigThunderingHerd)
	}
	return out
}
