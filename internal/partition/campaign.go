package partition

// The campaign runner: the consistency-guided injector, plus the two
// baselines it is measured against.
//
//   observe  — no injection; measures each scenario's natural
//              inconsistency window (when the views first disagree
//              after arming, and when reconciliation repairs them).
//   guided   — CoFI: step the simulator one event at a time, compare
//              every node's view after each event, and on the first
//              post-arm disagreement cut the links between the
//              disagreeing nodes and HOLD the cut to the horizon.
//   random   — the naive baseline: a seeded random link and cut time,
//              healed after a bounded hold.
//   fixed    — a caller-supplied schedule (the serve job kind and the
//              replay path for pinned regressions).
//   compare  — observe + guided + random side by side, and the report
//              names the findings only the guided injector reached.
//
// Every mode is deterministic: the random schedules are a pure
// function of (seed, scenario, trial), units never share mutable
// state, and the report renderer iterates slices, never maps — so a
// campaign's Render/Hash is bit-identical across -parallel settings
// and repeated runs.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Strategy selects the injection mode of a campaign.
type Strategy string

// The campaign strategies.
const (
	StrategyObserve Strategy = "observe"
	StrategyGuided  Strategy = "guided"
	StrategyRandom  Strategy = "random"
	StrategyFixed   Strategy = "fixed"
	StrategyCompare Strategy = "compare"
)

// Strategies returns the valid strategy names, sorted.
func Strategies() []string {
	return []string{"compare", "fixed", "guided", "observe", "random"}
}

// ValidStrategy reports whether name is a known strategy.
func ValidStrategy(name string) bool {
	for _, s := range Strategies() {
		if s == name {
			return true
		}
	}
	return false
}

// Cut is one scheduled link cut of a fixed schedule.
type Cut struct {
	AtMs     int64  `json:"at_ms"`
	From     string `json:"from"`
	To       string `json:"to"`
	OneWay   bool   `json:"one_way,omitempty"`
	HealAtMs int64  `json:"heal_at_ms,omitempty"` // 0 = held to the horizon
}

// Options configures a campaign.
type Options struct {
	Seed      uint64
	Scenarios []string // scenario names; empty = full registry
	Strategy  Strategy // default guided
	Trials    int      // random trials per scenario (default 20)
	HoldMs    int64    // random-cut hold before healing (default 1000)
	Parallel  int      // concurrent units (below 2 run sequentially; negative is an error)
	Schedule  []Cut    // StrategyFixed's schedule

	Tracer    *obs.Tracer
	Metrics   *obs.Registry
	Recorder  *obs.Recorder
	OnFinding func(Finding) // called in deterministic report order
}

// Finding is one invariant violation surfaced by a campaign unit.
type Finding struct {
	Scenario  string `json:"scenario"`
	ID        string `json:"id"`
	Anchor    string `json:"anchor"`
	Signature string `json:"signature"`
	Detail    string `json:"detail"`
	AtMs      int64  `json:"at_ms"`
	Strategy  string `json:"strategy"`
	Trial     int    `json:"trial"`     // random trial index; -1 otherwise
	CutAtMs   int64  `json:"cut_at_ms"` // when the triggering cut landed; -1 = none
}

// ScenarioOutcome aggregates every unit run against one scenario.
type ScenarioOutcome struct {
	Scenario  string `json:"scenario"`
	ID        string `json:"id"`
	Anchor    string `json:"anchor"`
	Signature string `json:"signature"`
	Nodes     string `json:"nodes"` // comma-joined, sorted
	HorizonMs int64  `json:"horizon_ms"`
	WindowKey string `json:"window_key"`

	// The observe pass: the natural inconsistency window. -1 = never
	// opened / never closed inside the horizon.
	WindowOpenMs  int64     `json:"window_open_ms"`
	WindowCloseMs int64     `json:"window_close_ms"`
	Baseline      []Finding `json:"baseline,omitempty"` // violations with no injection (a modeling bug if non-empty)

	GuidedCutMs    int64     `json:"guided_cut_ms"` // -1 = the guided monitor never fired
	GuidedCuts     []string  `json:"guided_cuts,omitempty"`
	GuidedFindings []Finding `json:"guided_findings,omitempty"`

	RandomTrials   int       `json:"random_trials,omitempty"`
	RandomFindings []Finding `json:"random_findings,omitempty"`

	FixedFindings []Finding `json:"fixed_findings,omitempty"`
}

// Result is a full campaign outcome.
type Result struct {
	Seed     uint64            `json:"seed"`
	Strategy Strategy          `json:"strategy"`
	Trials   int               `json:"trials"`
	HoldMs   int64             `json:"hold_ms"`
	Outcomes []ScenarioOutcome `json:"outcomes"`
}

// PlannedCut is one entry of a deterministic schedule enumeration: the
// exact cut a random trial will inject for a given seed.
type PlannedCut struct {
	Scenario string `json:"scenario"`
	Trial    int    `json:"trial"`
	From     string `json:"from"`
	To       string `json:"to"`
	AtMs     int64  `json:"at_ms"`
	HealAtMs int64  `json:"heal_at_ms"`
}

// registryIndex returns the scenario's stable position in the full
// registry, so a scenario's random schedule does not depend on which
// subset of scenarios a campaign selected.
func registryIndex(sc *Scenario) int {
	for i, s := range Scenarios() {
		if s.ID == sc.ID {
			return i
		}
	}
	return 0
}

// randomCutFor derives trial k's cut for a scenario: a pure function of
// (seed, scenario, trial).
func randomCutFor(sc *Scenario, seed uint64, trial int) ([2]string, int64) {
	rng := fuzzgen.NewRand(fuzzgen.DeriveSeed(seed, registryIndex(sc)*1000+trial))
	fab := NewFabric(vclock.New(), sc.Nodes...)
	links := fab.UndirectedLinks()
	link := links[rng.Intn(len(links))]
	at := int64(rng.Intn(int(sc.HorizonMs)))
	return link, at
}

// PlanRandom enumerates the cut schedule a random campaign with the
// given parameters will inject, without running anything.
func PlanRandom(seed uint64, scenarios []string, trials int, holdMs int64) ([]PlannedCut, error) {
	o, err := Options{Seed: seed, Scenarios: scenarios, Trials: trials, HoldMs: holdMs}.Resolve()
	if err != nil {
		return nil, err
	}
	scs, err := selectScenarios(o.Scenarios)
	if err != nil {
		return nil, err
	}
	var out []PlannedCut
	for _, sc := range scs {
		for k := 0; k < o.Trials; k++ {
			link, at := randomCutFor(sc, seed, k)
			out = append(out, PlannedCut{
				Scenario: sc.Name, Trial: k,
				From: link[0], To: link[1],
				AtMs: at, HealAtMs: at + o.HoldMs,
			})
		}
	}
	return out, nil
}

// The campaign defaults Resolve fills in for a zero Trials or HoldMs.
const (
	DefaultTrials = 20
	DefaultHoldMs = 1000
)

// Resolve returns the options with the campaign defaults filled in —
// the full registry, in registry order, for an empty scenario list, the
// guided strategy, DefaultTrials and DefaultHoldMs — or the first
// reason they cannot run: an unknown scenario or strategy, a negative
// Parallel, Trials or HoldMs, a fixed strategy without a schedule, or a
// schedule cut that no selected scenario can take. Run and PlanRandom
// resolve their options through it, and so does crossd for a partition
// job spec, so a spec with its defaults omitted and the same spec
// spelled out are one campaign under one cache key.
func (o Options) Resolve() (Options, error) {
	if o.Parallel < 0 {
		return o, fmt.Errorf("partition: Parallel must be non-negative, got %d", o.Parallel)
	}
	scs, err := selectScenarios(o.Scenarios)
	if err != nil {
		return o, err
	}
	nodes := map[string]bool{}
	o.Scenarios = make([]string, len(scs))
	for i, sc := range scs {
		o.Scenarios[i] = sc.Name
		for _, n := range sc.Nodes {
			nodes[n] = true
		}
	}
	if o.Strategy == "" {
		o.Strategy = StrategyGuided
	}
	if !ValidStrategy(string(o.Strategy)) {
		return o, fmt.Errorf("partition: unknown strategy %q (have %s)", o.Strategy, strings.Join(Strategies(), ", "))
	}
	if o.Trials < 0 {
		return o, fmt.Errorf("partition: Trials must be non-negative, got %d", o.Trials)
	}
	if o.Trials == 0 {
		o.Trials = DefaultTrials
	}
	if o.HoldMs < 0 {
		return o, fmt.Errorf("partition: HoldMs must be non-negative, got %d", o.HoldMs)
	}
	if o.HoldMs == 0 {
		o.HoldMs = DefaultHoldMs
	}
	if o.Strategy == StrategyFixed && len(o.Schedule) == 0 {
		return o, fmt.Errorf("partition: strategy %q needs a non-empty schedule", StrategyFixed)
	}
	for _, c := range o.Schedule {
		if c.From == "" || c.To == "" {
			return o, fmt.Errorf("partition: schedule cut needs both node names, got %q->%q", c.From, c.To)
		}
		for _, n := range []string{c.From, c.To} {
			if !nodes[n] {
				return o, fmt.Errorf("partition: schedule names node %q, which no selected scenario has", n)
			}
		}
		if c.AtMs < 0 {
			return o, fmt.Errorf("partition: schedule cut time must be non-negative, got %d", c.AtMs)
		}
		if c.HealAtMs != 0 && c.HealAtMs <= c.AtMs {
			return o, fmt.Errorf("partition: cut heal time %d must follow the cut at %d (or be 0 to hold)", c.HealAtMs, c.AtMs)
		}
	}
	return o, nil
}

func selectScenarios(names []string) ([]*Scenario, error) {
	if len(names) == 0 {
		return Scenarios(), nil
	}
	var out []*Scenario
	for _, name := range names {
		sc := ByName(name)
		if sc == nil {
			return nil, fmt.Errorf("partition: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

// unitResult is what one isolated run of one scenario produces.
type unitResult struct {
	windowOpen  int64
	windowClose int64
	cutAt       int64
	cuts        []string
	findings    []Finding
}

// runUnit executes one (scenario, mode, trial) unit on a fresh clock,
// fabric, and simulator wiring. mode is one of the Strategy values
// except compare; schedule applies only to fixed; trial only to random.
func runUnit(sc *Scenario, mode Strategy, trial int, opts Options) unitResult {
	res := unitResult{windowOpen: -1, windowClose: -1, cutAt: -1}
	sim := vclock.New()
	fab := NewFabric(sim, sc.Nodes...)

	var sp *obs.Span
	if opts.Tracer != nil {
		sp = opts.Tracer.Span(nil, sc.System, csi.ControlPlane, "partition:"+string(mode)+":"+sc.Name)
		sp.Set("scenario", sc.Name).Set("anchor", sc.Anchor)
		if trial >= 0 {
			sp.Set("trial", fmt.Sprintf("%d", trial))
		}
	}
	fab.OnChange = func(ev LinkEvent) {
		typ := obs.EvPartitionHeal
		if ev.Cut {
			typ = obs.EvPartitionCut
			opts.Metrics.Counter(obs.MetricPartitionCuts, "scenario", sc.Name).Inc()
		}
		opts.Recorder.Record(obs.Event{Type: typ, Job: sc.Name, Detail: ev.String()})
	}

	in := sc.Build(sim, fab)

	switch mode {
	case StrategyRandom:
		link, at := randomCutFor(sc, opts.Seed, trial)
		res.cutAt = at
		sim.After(at, func() { fab.Cut(link[0], link[1]) })
		sim.After(at+opts.HoldMs, func() { fab.Heal(link[0], link[1]) })
		sim.Run(sc.HorizonMs)
	case StrategyFixed:
		for _, c := range opts.Schedule {
			if !fab.HasNode(c.From) || !fab.HasNode(c.To) {
				continue
			}
			c := c
			if res.cutAt < 0 || c.AtMs < res.cutAt {
				res.cutAt = c.AtMs
			}
			sim.After(c.AtMs, func() {
				if c.OneWay {
					fab.CutOneWay(c.From, c.To)
				} else {
					fab.Cut(c.From, c.To)
				}
			})
			if c.HealAtMs > c.AtMs {
				sim.After(c.HealAtMs, func() { fab.Heal(c.From, c.To) })
			}
		}
		sim.Run(sc.HorizonMs)
	default: // observe and guided share the step-driven monitor
		injected := false
		for {
			next := sim.NextAt()
			if next < 0 || next > sc.HorizonMs {
				break
			}
			sim.Step()
			if sim.Now() < sc.ArmAtMs {
				continue
			}
			inc := FindInconsistency(sim.Now(), in.Views())
			if inc == nil {
				if res.windowOpen >= 0 && res.windowClose < 0 {
					res.windowClose = sim.Now()
				}
				continue
			}
			if res.windowOpen < 0 {
				res.windowOpen = sim.Now()
			}
			if mode == StrategyGuided && !injected {
				injected = true
				res.cutAt = sim.Now()
				sc.isolate(fab, *inc)
			}
		}
		sim.Run(sc.HorizonMs) // land the clock exactly on the horizon
	}

	if in.FinalCheck != nil {
		in.FinalCheck()
	}
	for _, v := range in.Violations() {
		res.findings = append(res.findings, Finding{
			Scenario: sc.Name, ID: sc.ID, Anchor: sc.Anchor,
			Signature: v.Signature, Detail: v.Detail, AtMs: v.AtMs,
			Strategy: string(mode), Trial: trial, CutAtMs: res.cutAt,
		})
		opts.Recorder.Record(obs.Event{Type: obs.EvInvariantViolated, Job: sc.Name, Detail: v.Signature})
		opts.Metrics.Counter(obs.MetricPartitionFindings, "scenario", sc.Name, "strategy", string(mode)).Inc()
	}
	for _, ev := range fab.History() {
		res.cuts = append(res.cuts, ev.String())
	}
	if sp != nil {
		sp.Set("findings", fmt.Sprintf("%d", len(res.findings)))
		sp.End()
	}
	return res
}

// Run executes a campaign. Units (scenario x mode x trial) are fully
// independent and run on opts.Parallel workers; results are assembled
// in deterministic order regardless of completion order.
func Run(opts Options) (*Result, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	scs, err := selectScenarios(opts.Scenarios)
	if err != nil {
		return nil, err
	}

	// Enumerate units. Every strategy runs the observe pass: the
	// natural window contextualizes any finding, and it is cheap.
	type unit struct {
		scIdx int
		mode  Strategy
		trial int
		res   unitResult
	}
	var units []*unit
	for i := range scs {
		add := func(mode Strategy, trial int) {
			units = append(units, &unit{scIdx: i, mode: mode, trial: trial})
		}
		add(StrategyObserve, -1)
		if opts.Strategy == StrategyGuided || opts.Strategy == StrategyCompare {
			add(StrategyGuided, -1)
		}
		if opts.Strategy == StrategyRandom || opts.Strategy == StrategyCompare {
			for k := 0; k < opts.Trials; k++ {
				add(StrategyRandom, k)
			}
		}
		if opts.Strategy == StrategyFixed {
			add(StrategyFixed, -1)
		}
	}
	// A nil context never stops the pool, so it returns no error.
	_ = core.RunPool(nil, opts.Parallel, units, func(u *unit) {
		u.res = runUnit(scs[u.scIdx], u.mode, u.trial, opts)
	})

	// Deterministic assembly, in scenario order then mode then trial —
	// the order units were enumerated in.
	outcomes := make([]ScenarioOutcome, len(scs))
	for i, sc := range scs {
		outcomes[i] = ScenarioOutcome{
			Scenario: sc.Name, ID: sc.ID, Anchor: sc.Anchor, Signature: sc.Signature,
			Nodes:     strings.Join(NewFabric(vclock.New(), sc.Nodes...).Nodes(), ","),
			HorizonMs: sc.HorizonMs, WindowKey: sc.WindowKey,
			WindowOpenMs: -1, WindowCloseMs: -1, GuidedCutMs: -1,
		}
	}
	emit := func(fs []Finding) {
		if opts.OnFinding != nil {
			for _, f := range fs {
				opts.OnFinding(f)
			}
		}
	}
	for _, u := range units {
		out := &outcomes[u.scIdx]
		r := u.res
		switch u.mode {
		case StrategyObserve:
			out.WindowOpenMs, out.WindowCloseMs = r.windowOpen, r.windowClose
			out.Baseline = append(out.Baseline, r.findings...)
		case StrategyGuided:
			out.GuidedCutMs = r.cutAt
			out.GuidedCuts = r.cuts
			out.GuidedFindings = append(out.GuidedFindings, r.findings...)
		case StrategyRandom:
			out.RandomTrials++
			out.RandomFindings = append(out.RandomFindings, r.findings...)
		case StrategyFixed:
			out.FixedFindings = append(out.FixedFindings, r.findings...)
		}
	}
	for i := range outcomes {
		emit(outcomes[i].Baseline)
		emit(outcomes[i].GuidedFindings)
		emit(outcomes[i].RandomFindings)
		emit(outcomes[i].FixedFindings)
	}
	return opts.Result(outcomes), nil
}

// Result returns the campaign result of these resolved options over
// the scenario outcomes, in scenario order. Run builds its result here,
// and so does a merge of single-scenario campaigns.
func (o Options) Result(outcomes []ScenarioOutcome) *Result {
	return &Result{Seed: o.Seed, Strategy: o.Strategy, Trials: o.Trials, HoldMs: o.HoldMs, Outcomes: outcomes}
}

// GuidedOnlyIDs returns the P* IDs found by the guided injector and by
// no random trial — the CoFI differential a compare campaign exists to
// demonstrate.
func (r *Result) GuidedOnlyIDs() []string {
	randomHit := map[string]bool{}
	for _, out := range r.Outcomes {
		for _, f := range out.RandomFindings {
			randomHit[f.ID] = true
		}
	}
	var ids []string
	for _, out := range r.Outcomes {
		for _, f := range out.GuidedFindings {
			if !randomHit[f.ID] {
				ids = append(ids, f.ID)
				break
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// Render formats the campaign deterministically: byte-identical output
// for identical options, independent of Parallel.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition campaign seed=%d strategy=%s trials=%d hold=%dms scenarios=%d\n",
		r.Seed, r.Strategy, r.Trials, r.HoldMs, len(r.Outcomes))
	writeFinding := func(f Finding) {
		fmt.Fprintf(&b, "    - %s @%dms", f.Signature, f.AtMs)
		if f.Trial >= 0 {
			fmt.Fprintf(&b, " (trial %d, cut @%dms)", f.Trial, f.CutAtMs)
		}
		fmt.Fprintf(&b, ": %s\n", f.Detail)
	}
	guidedCount, randomCount := 0, 0
	var guidedIDs []string
	for _, out := range r.Outcomes {
		fmt.Fprintf(&b, "\n%s %s (%s) nodes=%s horizon=%dms\n",
			out.ID, out.Scenario, out.Anchor, out.Nodes, out.HorizonMs)
		switch {
		case out.WindowOpenMs < 0:
			fmt.Fprintf(&b, "  natural window: none (key %s)\n", out.WindowKey)
		case out.WindowCloseMs < 0:
			fmt.Fprintf(&b, "  natural window: [%dms, horizon) key %s\n", out.WindowOpenMs, out.WindowKey)
		default:
			fmt.Fprintf(&b, "  natural window: [%dms, %dms) key %s\n", out.WindowOpenMs, out.WindowCloseMs, out.WindowKey)
		}
		fmt.Fprintf(&b, "  baseline: %d violations\n", len(out.Baseline))
		for _, f := range out.Baseline {
			writeFinding(f)
		}
		if r.Strategy == StrategyGuided || r.Strategy == StrategyCompare {
			if out.GuidedCutMs < 0 {
				fmt.Fprintf(&b, "  guided: no inconsistency observed; no cut\n")
			} else {
				fmt.Fprintf(&b, "  guided: cut at %dms [%s]; %d findings\n",
					out.GuidedCutMs, strings.Join(out.GuidedCuts, "; "), len(out.GuidedFindings))
			}
			for _, f := range out.GuidedFindings {
				writeFinding(f)
			}
			if len(out.GuidedFindings) > 0 {
				guidedCount += len(out.GuidedFindings)
				guidedIDs = append(guidedIDs, out.ID)
			}
		}
		if r.Strategy == StrategyRandom || r.Strategy == StrategyCompare {
			fmt.Fprintf(&b, "  random: %d trials, %d findings\n", out.RandomTrials, len(out.RandomFindings))
			for _, f := range out.RandomFindings {
				writeFinding(f)
			}
			randomCount += len(out.RandomFindings)
		}
		if r.Strategy == StrategyFixed {
			fmt.Fprintf(&b, "  fixed: %d findings\n", len(out.FixedFindings))
			for _, f := range out.FixedFindings {
				writeFinding(f)
			}
		}
	}
	fmt.Fprintf(&b, "\nsummary strategy=%s\n", r.Strategy)
	if r.Strategy == StrategyGuided || r.Strategy == StrategyCompare {
		fmt.Fprintf(&b, "  guided findings: %d (%s)\n", guidedCount, strings.Join(guidedIDs, " "))
	}
	if r.Strategy == StrategyRandom || r.Strategy == StrategyCompare {
		fmt.Fprintf(&b, "  random findings: %d\n", randomCount)
	}
	if r.Strategy == StrategyCompare {
		only := r.GuidedOnlyIDs()
		fmt.Fprintf(&b, "  guided-only: %d (%s)\n", len(only), strings.Join(only, " "))
	}
	return b.String()
}

// Hash is the campaign's content hash: sha256 over the rendered report.
func (r *Result) Hash() string {
	return core.HashBytes([]byte(r.Render()))
}
