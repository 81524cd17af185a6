package loadgen

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
)

// PhaseOptions configures a phase-diagram sweep: every retry-policy
// row against every load column, each cell on a fresh virtual clock
// but — per column — the byte-identical arrival schedule, so the only
// variable between a collapsed cell and a recovered one is the client's
// retry behaviour.
type PhaseOptions struct {
	Seed uint64
	// Policies selects the rows (labels from Policies()); empty = all.
	Policies []string
	// PeakRPS selects the columns: the spike's peak rate in whole rps.
	// Empty = DefaultPeaks.
	PeakRPS []int64
	// Parallel runs cells concurrently (default 1). Reports are
	// bit-identical regardless.
	Parallel int

	// Admission enables the server-side token bucket in every cell —
	// the "what if the server defends itself" sweep.
	Admission bool

	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// The standard cell geometry. The server serves 400 rps (4 workers x
// 10 ms); the base load is a comfortable 300 rps; the spike occupies
// [10 s, 20 s) of a 60 s horizon, leaving 40 s of post-trigger
// history for the metastability verdict.
const (
	StdWorkers   = 4
	StdQueueCap  = 200
	StdServiceMs = 10
	StdBaseRPS   = 300
	StdHorizonMs = 60_000
	StdWindowMs  = 1000
	StdSpikeFrom = 10_000
	StdSpikeTo   = 20_000
	StdTimeoutMs = 300
)

// DefaultPeaks are the standard load columns: below capacity (the
// control), 2x capacity, and 4x capacity.
func DefaultPeaks() []int64 { return []int64{350, 800, 1600} }

// StdServer returns the standard cell server. With admission on, the
// token bucket caps sustained intake at ~90% of service capacity with
// a one-second burst allowance — rejecting cheaply at the door instead
// of queueing into the timeout zone.
func StdServer(admission bool) ServerConfig {
	cfg := ServerConfig{Workers: StdWorkers, QueueCap: StdQueueCap, ServiceMs: StdServiceMs}
	if admission {
		cfg.TokenRate = 360 * MicroRPS
		cfg.TokenBurst = 360
	}
	return cfg
}

// Cell is one evaluated (policy, load) coordinate.
type Cell struct {
	Policy  string `json:"policy"`
	PeakRPS int64  `json:"peak_rps"`

	Stats          *RunStats      `json:"stats"`
	Classification Classification `json:"classification"`
}

// PhaseResult is a full sweep.
type PhaseResult struct {
	Seed      uint64   `json:"seed"`
	Admission bool     `json:"admission"`
	Policies  []string `json:"policies"`
	PeakRPS   []int64  `json:"peak_rps"`
	Cells     []Cell   `json:"cells"` // row-major: policies x peaks
}

// columnSeed derives the arrival-schedule seed for one load column: a
// pure function of (sweep seed, peak), independent of the policy row,
// so every row in a column replays the identical arrivals.
func columnSeed(seed uint64, peak int64) uint64 {
	return fuzzgen.DeriveSeed(seed, int(peak))
}

// CellConfig builds the EngineConfig for one coordinate. Exposed so
// the CLI's single-cell mode and the sweep agree exactly.
func CellConfig(seed uint64, spec PolicySpec, peak int64, admission bool) EngineConfig {
	curve := Spike{Base: StdBaseRPS * MicroRPS, Peak: peak * MicroRPS, FromMs: StdSpikeFrom, ToMs: StdSpikeTo}
	return EngineConfig{
		Seed:      columnSeed(seed, peak),
		Curve:     curve,
		HorizonMs: StdHorizonMs,
		WindowMs:  StdWindowMs,
		Server:    StdServer(admission),
		Client: ClientConfig{
			Mode:      ModeOpen,
			TimeoutMs: StdTimeoutMs,
			Policy:    spec.Policy,
			Breaker:   spec.Breaker,
		},
		Label: fmt.Sprintf("%s@%d", spec.Label, peak),
	}
}

// RunPhaseDiagram executes the sweep. Cells are independent units on
// Parallel workers; assembly order is row-major and deterministic.
func RunPhaseDiagram(opts PhaseOptions) (*PhaseResult, error) {
	var specs []PolicySpec
	if len(opts.Policies) == 0 {
		specs = Policies()
	} else {
		for _, label := range opts.Policies {
			spec, err := PolicyByLabel(label)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	peaks := opts.PeakRPS
	if len(peaks) == 0 {
		peaks = DefaultPeaks()
	}
	for _, p := range peaks {
		if p <= 0 {
			return nil, fmt.Errorf("loadgen: peak rps must be positive, got %d", p)
		}
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}

	// Precompute each column's arrival schedule once; every row shares
	// the same backing slice (read-only inside Run).
	schedules := make(map[int64][]int64, len(peaks))
	for _, peak := range peaks {
		cfg := CellConfig(opts.Seed, specs[0], peak, opts.Admission)
		schedules[peak] = Schedule(cfg.Seed, cfg.Curve, cfg.HorizonMs)
	}

	type coord struct {
		row, col int
	}
	coords := make([]coord, 0, len(specs)*len(peaks))
	for r := range specs {
		for c := range peaks {
			coords = append(coords, coord{r, c})
		}
	}
	cells := make([]Cell, len(coords))
	var firstErr error
	var errMu sync.Mutex
	runCell := func(co coord) {
		spec, peak := specs[co.row], peaks[co.col]
		cfg := CellConfig(opts.Seed, spec, peak, opts.Admission)
		cfg.Arrivals = schedules[peak]
		cfg.Tracer = opts.Tracer
		cfg.Metrics = opts.Metrics
		stats, err := Run(cfg)
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		cls := Classify(stats, cfg.Server, cfg.WindowMs, OverloadEndMs(cfg.Curve, cfg.HorizonMs), spec.Policy.Jittered())
		// coords are row-major, so a cell's slot is row*len(peaks)+col.
		cells[co.row*len(peaks)+co.col] = Cell{Policy: spec.Label, PeakRPS: peak, Stats: stats, Classification: cls}
	}

	_ = core.RunPool(nil, opts.Parallel, coords, runCell) // a nil context never stops the pool
	if firstErr != nil {
		return nil, firstErr
	}

	res := &PhaseResult{Seed: opts.Seed, Admission: opts.Admission, PeakRPS: peaks}
	for _, s := range specs {
		res.Policies = append(res.Policies, s.Label)
	}
	res.Cells = cells
	return res, nil
}

// CellAt returns the cell for (policy label, peak), or nil.
func (r *PhaseResult) CellAt(policy string, peak int64) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Policy == policy && r.Cells[i].PeakRPS == peak {
			return &r.Cells[i]
		}
	}
	return nil
}

// Render formats the sweep deterministically: the per-cell detail
// blocks followed by the classification matrix. Byte-identical across
// -parallel settings and repeated runs.
func (r *PhaseResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load phase diagram seed=%d admission=%v base=%drps capacity=%drps spike=[%ds,%ds) horizon=%ds\n",
		r.Seed, r.Admission, int64(StdBaseRPS), StdServer(false).CapacityRPS(),
		StdSpikeFrom/1000, StdSpikeTo/1000, StdHorizonMs/1000)
	for i := range r.Cells {
		cell := &r.Cells[i]
		st, cls := cell.Stats, &cell.Classification
		t := st.Totals
		fmt.Fprintf(&b, "\n%s peak=%drps: %s\n", cell.Policy, cell.PeakRPS, cls.Class)
		fmt.Fprintf(&b, "  arrivals=%d attempts=%d goodput=%d wasted=%d timeouts=%d\n",
			t.Arrivals, t.Attempts, t.Goodput, t.Wasted, t.Timeouts)
		fmt.Fprintf(&b, "  rejected: queue=%d throttled=%d breaker_shed=%d give_ups=%d final_queue=%d\n",
			t.RejectQueue, t.RejectThrottle, t.BreakerShed, t.GiveUps, t.QueueLen)
		fmt.Fprintf(&b, "  latency p50=%.1fms p95=%.1fms p99=%.1fms breaker_opens=%d\n",
			st.P50Ms, st.P95Ms, st.P99Ms, st.BreakerOpens)
		fmt.Fprintf(&b, "  collapsed_windows=%d tail_collapsed=%d post_amplification=%.2f\n",
			cls.CollapsedWindows, cls.TailCollapsed, cls.PostAmplification)
		if len(cls.Signatures) > 0 {
			fmt.Fprintf(&b, "  signatures: %s\n", strings.Join(cls.Signatures, " "))
		}
	}

	fmt.Fprintf(&b, "\nphase matrix (rows=policy, cols=spike peak rps)\n")
	fmt.Fprintf(&b, "  %-24s", "")
	for _, p := range r.PeakRPS {
		fmt.Fprintf(&b, " %12d", p)
	}
	b.WriteString("\n")
	for _, policy := range r.Policies {
		fmt.Fprintf(&b, "  %-24s", policy)
		for _, p := range r.PeakRPS {
			cls := "-"
			if c := r.CellAt(policy, p); c != nil {
				cls = c.Classification.Class
			}
			fmt.Fprintf(&b, " %12s", cls)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Hash is the sweep's content hash: sha256 over the rendered report.
func (r *PhaseResult) Hash() string {
	return core.HashBytes([]byte(r.Render()))
}
