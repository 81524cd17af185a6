package loadgen

import "testing"

// classifyServer is the synthetic-window geometry: 400 requests of
// capacity per 1 s window, collapse line at goodput < 120.
var classifyServer = ServerConfig{Workers: 4, QueueCap: 200, ServiceMs: 10}

func windowsOf(goodput ...int64) *RunStats {
	stats := &RunStats{}
	for i, g := range goodput {
		w := WindowStats{FromMs: int64(i) * 1000, Arrivals: 300, Attempts: 500, Goodput: g}
		stats.Windows = append(stats.Windows, w)
	}
	return stats
}

func TestClassifyStable(t *testing.T) {
	stats := windowsOf(390, 395, 400, 400, 400, 400)
	cls := Classify(stats, classifyServer, 1000, 2000, false)
	if cls.Class != ClassStable || cls.CollapsedWindows != 0 {
		t.Errorf("classification = %+v, want stable/0", cls)
	}
	if len(cls.Signatures) != 0 {
		t.Errorf("stable cell carries signatures %v", cls.Signatures)
	}
}

func TestClassifyRecovering(t *testing.T) {
	// Collapse during the perturbation, healthy tail.
	stats := windowsOf(100, 50, 80, 400, 400, 400, 400, 400)
	cls := Classify(stats, classifyServer, 1000, 3000, false)
	if cls.Class != ClassRecovering {
		t.Errorf("class = %s, want %s", cls.Class, ClassRecovering)
	}
	if cls.CollapsedWindows != 3 || cls.TailCollapsed != 0 {
		t.Errorf("collapsed=%d tail=%d, want 3/0", cls.CollapsedWindows, cls.TailCollapsed)
	}
}

func TestClassifyMetastable(t *testing.T) {
	// Collapse that persists to the end of the horizon.
	stats := windowsOf(400, 100, 60, 50, 40, 30, 20, 10)
	cls := Classify(stats, classifyServer, 1000, 2000, false)
	if cls.Class != ClassMetastable {
		t.Errorf("class = %s, want %s", cls.Class, ClassMetastable)
	}
	if cls.TailCollapsed < tailCollapsedMin {
		t.Errorf("tail collapsed = %d, want >= %d", cls.TailCollapsed, tailCollapsedMin)
	}
	if got := cls.Signatures; len(got) == 0 || got[0] != SigMetastableCollapse {
		t.Errorf("signatures = %v, want %s first", got, SigMetastableCollapse)
	}
}

// TestClassifyRetryStorm pins the amplification signature: sustained
// post-overload attempts >= 3x arrivals across >= 3 consecutive windows.
func TestClassifyRetryStorm(t *testing.T) {
	stats := &RunStats{}
	for i := 0; i < 8; i++ {
		w := WindowStats{FromMs: int64(i) * 1000, Arrivals: 300, Attempts: 300, Goodput: 400}
		if i >= 4 {
			w.Attempts = 1000 // 3.3x amplification after the overload ends
			w.Goodput = 50
		}
		stats.Windows = append(stats.Windows, w)
	}
	cls := Classify(stats, classifyServer, 1000, 4000, false)
	found := false
	for _, s := range cls.Signatures {
		if s == SigRetryStorm {
			found = true
		}
	}
	if !found {
		t.Errorf("signatures = %v, want %s", cls.Signatures, SigRetryStorm)
	}
	if cls.PostAmplification < 3.0 {
		t.Errorf("post amplification = %.2f, want >= 3", cls.PostAmplification)
	}

	// Two amplified windows separated by a calm one: no storm.
	stats.Windows[5].Attempts = 300
	cls = Classify(stats, classifyServer, 1000, 4000, false)
	for _, s := range cls.Signatures {
		if s == SigRetryStorm {
			t.Errorf("non-consecutive amplification still flagged a storm: %v", cls.Signatures)
		}
	}
}

// TestClassifyThunderingHerd pins burst attribution: a synchronized
// 100 ms cluster in a jitter-free cell earns the signature; the same
// windows under a jittered policy do not (jitter is the cure, so the
// herd cannot be attributed to it).
func TestClassifyThunderingHerd(t *testing.T) {
	stats := windowsOf(100, 50, 40, 30, 20, 10)
	// Mean 50 attempts per 100 ms slice; one slice carrying 250 is a herd.
	stats.Windows[1].MaxBurst = 250
	cls := Classify(stats, classifyServer, 1000, 2000, false)
	herd := false
	for _, s := range cls.Signatures {
		if s == SigThunderingHerd {
			herd = true
		}
	}
	if !herd {
		t.Errorf("signatures = %v, want %s", cls.Signatures, SigThunderingHerd)
	}

	jittered := Classify(stats, classifyServer, 1000, 2000, true)
	for _, s := range jittered.Signatures {
		if s == SigThunderingHerd {
			t.Errorf("jittered cell blamed for a herd: %v", jittered.Signatures)
		}
	}
}

func TestClassifyEmpty(t *testing.T) {
	cls := Classify(&RunStats{}, classifyServer, 1000, 0, false)
	if cls.Class != ClassStable {
		t.Errorf("empty run class = %s, want stable", cls.Class)
	}
}
