package lint

import (
	"strings"
	"testing"
)

// detConfig mirrors DefaultConfig's determinism shape over the
// fixture: det is listed deterministic, detsim is deterministic by
// suffix, clocked is allowlisted.
func detConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{"internal/det"},
		SimSuffix:         "sim",
		WallClockAllowed:  []string{"internal/clocked"},
	}
}

func TestDeterminismFixture(t *testing.T) {
	rep := runFixture(t, "determinism", detConfig())
	checkFindings(t, rep, []want{
		{check: "determinism/rand", file: "det/det.go", msg: "math/rand"},
		{check: "determinism/wallclock", file: "det/det.go", msg: "time.Now"},
		{check: "determinism/wallclock", file: "det/det.go", waived: true, msg: "time.Now"},
		{check: "determinism/env", file: "det/det.go", msg: "os.Getenv"},
		{check: "determinism/maprange", file: "det/det.go", msg: "WriteString"},
		{check: "determinism/wallclock", file: "detsim/detsim.go", msg: "time.Now"},
		{check: "waiver/no-reason", file: "det/det.go", msg: "crossvet:wallclock"},
		{check: "waiver/unused", file: "det/det.go", msg: "crossvet:env"},
	})
	for _, f := range rep.Findings {
		if f.File == "internal/clocked/clocked.go" {
			t.Errorf("allowlisted package flagged: %s", f.line())
		}
	}
}

// TestDeterminismValidate pins the config guards: a package cannot be
// both deterministic and allowlisted, a simulator package cannot be
// allowlisted, and neither list may name a package the module lacks.
func TestDeterminismValidate(t *testing.T) {
	m := loadFixture(t, "determinism")
	cfg := detConfig()
	cfg.WallClockAllowed = append(cfg.WallClockAllowed, "internal/det")
	if _, err := Run(m, cfg); err == nil {
		t.Error("deterministic+allowed overlap not rejected")
	}
	cfg = detConfig()
	cfg.WallClockAllowed = []string{"internal/detsim"}
	if _, err := Run(m, cfg); err == nil {
		t.Error("allowlisted simulator package not rejected")
	}
	cfg = detConfig()
	cfg.DeterministicPkgs = append(cfg.DeterministicPkgs, "internal/gone")
	if _, err := Run(m, cfg); err == nil || !strings.Contains(err.Error(), "internal/gone") {
		t.Errorf("stale deterministic entry: err = %v, want one naming internal/gone", err)
	}
	cfg = detConfig()
	cfg.WallClockAllowed = append(cfg.WallClockAllowed, "internal/gone")
	if _, err := Run(m, cfg); err == nil || !strings.Contains(err.Error(), "internal/gone") {
		t.Errorf("stale wall-clock entry: err = %v, want one naming internal/gone", err)
	}
}
