// Command crossload is the metastable-failure workload engine: a
// deterministic closed-/open-loop load generator (internal/loadgen)
// that sweeps client retry policies against overload curves and
// classifies each cell as stable, recovering, or metastable. The
// headline experiment: on a byte-identical arrival schedule, naive
// retries keep the system collapsed for the full 40 s after a 10 s
// spike ends, while capped backoff + jitter + a circuit breaker
// recovers — no code defect anywhere, just the interaction.
//
// Usage:
//
//	crossload [-seed N] [-policy a,b] [-peak 350,800,1600] [-admission]
//	          [-parallel N] [-trace dir] [-metrics file]        phase sweep (default)
//	crossload -curve spike|ramp|diurnal|constant [-policy p]
//	          [-base RPS] [-peak RPS] [-seed N]                  one cell
//	crossload -storm N [-policy p] [-seed N]                     wall-clock storm
//	          against an in-process crossd scheduler
//	crossload -list                                              registries
//	crossload -version                                           build info
//
// The phase sweep and single-cell modes run entirely in virtual time:
// reports are bit-identical across -parallel settings, platforms, and
// repeated runs (CI pins the seed-42 report). The -storm mode drives a
// real serve.Scheduler wall-clock through the same retry policies, so
// its totals are exact but its rejection split is timing-dependent.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/inject"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

func main() {
	seed := flag.Uint64("seed", 42, "sweep seed (drives arrival dither and jitter)")
	policy := flag.String("policy", "", "comma-separated retry-policy rows (empty = all)")
	peaks := flag.String("peak", "", "comma-separated spike peaks in rps (empty = 350,800,1600)")
	admission := flag.Bool("admission", false, "enable server-side token-bucket admission in every cell")
	parallel := flag.Int("parallel", 1, "concurrent cells (reports are bit-identical regardless)")
	curve := flag.String("curve", "", "single-cell mode: run one cell on this curve instead of the sweep")
	base := flag.Int64("base", loadgen.StdBaseRPS, "single-cell base rate in rps")
	storm := flag.Int("storm", 0, "wall-clock mode: drive N sessions against an in-process crossd scheduler")
	list := flag.Bool("list", false, "list policies, curves, and the L* failure registry, then exit")
	cli.Observe()
	cli.Parse("crossload")
	defer cli.Flush()

	if *list {
		listRegistries()
		return
	}

	var policies []string
	if *policy != "" {
		for _, p := range strings.Split(*policy, ",") {
			if p = strings.TrimSpace(p); p != "" {
				policies = append(policies, p)
			}
		}
	}

	var err error
	switch {
	case *storm > 0:
		err = runStorm(*seed, *storm, policies)
	case *curve != "":
		err = runCell(*seed, *curve, *base, firstPeak(*peaks, 800), policies, *admission)
	default:
		err = runSweep(*seed, policies, *peaks, *admission, *parallel)
	}
	if err != nil {
		cli.Fatal(err)
	}
}

func listRegistries() {
	fmt.Println("retry policies (phase-diagram rows):")
	for _, spec := range loadgen.Policies() {
		breaker := "-"
		if spec.Breaker.Enabled {
			breaker = fmt.Sprintf("breaker(fail>=%d, open %dms)", spec.Breaker.FailThreshold, spec.Breaker.OpenMs)
		}
		fmt.Printf("  %-26s %s\n", spec.Label, breaker)
	}
	fmt.Println("\nload curves:")
	for _, name := range loadgen.Curves() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("\nload-interaction failure registry (L*):")
	for _, d := range inject.LoadRegistry() {
		fmt.Printf("  %s  %-44s %-20s %s\n", d.ID, d.Anchor, strings.Join(d.Signatures, ","), d.Cell)
	}
}

func parsePeaks(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad peak %q: %v", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func firstPeak(s string, def int64) int64 {
	peaks, err := parsePeaks(s)
	if err != nil || len(peaks) == 0 {
		return def
	}
	return peaks[0]
}

func runSweep(seed uint64, policies []string, peakList string, admission bool, parallel int) error {
	peaks, err := parsePeaks(peakList)
	if err != nil {
		return err
	}
	res, err := loadgen.RunPhaseDiagram(loadgen.PhaseOptions{
		Seed: seed, Policies: policies, PeakRPS: peaks,
		Admission: admission, Parallel: parallel,
		Tracer: cli.Tracer, Metrics: cli.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	fmt.Printf("\nreport-hash: %s\n", res.Hash())
	return nil
}

func runCell(seed uint64, curveName string, base, peak int64, policies []string, admission bool) error {
	label := "backoff+jitter+breaker"
	if len(policies) > 0 {
		label = policies[0]
	}
	spec, err := loadgen.PolicyByLabel(label)
	if err != nil {
		return err
	}
	c, err := loadgen.CurveByName(curveName,
		base*loadgen.MicroRPS, peak*loadgen.MicroRPS, loadgen.StdSpikeFrom, loadgen.StdSpikeTo)
	if err != nil {
		return err
	}
	cfg := loadgen.CellConfig(seed, spec, peak, admission)
	cfg.Curve = c
	cfg.Arrivals = nil
	cfg.Label = fmt.Sprintf("%s@%s", spec.Label, curveName)
	cfg.Tracer = cli.Tracer
	cfg.Metrics = cli.Metrics
	stats, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	cls := loadgen.Classify(stats, cfg.Server, cfg.WindowMs,
		loadgen.OverloadEndMs(c, cfg.HorizonMs), spec.Policy.Jittered())

	fmt.Printf("cell %s base=%drps peak=%drps seed=%d: %s\n", cfg.Label, base, peak, seed, cls.Class)
	loadgen.RenderCellStats(os.Stdout, stats, &cls)
	return nil
}

// runStorm drives a real scheduler: a small crossd worker pool running
// genuine fuzz jobs, stormed wall-clock through the same retry
// policies the virtual cells sweep.
func runStorm(seed uint64, sessions int, policies []string) error {
	label := "backoff+jitter+breaker"
	if len(policies) > 0 {
		label = policies[0]
	}
	spec, err := loadgen.PolicyByLabel(label)
	if err != nil {
		return err
	}
	cache, err := serve.NewCache(256, "")
	if err != nil {
		return err
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, QueueDepth: 4, Cache: cache,
		Executor: &serve.Executor{Tracer: cli.Tracer, Metrics: cli.Metrics},
		Tracer:   cli.Tracer, Metrics: cli.Metrics,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		sched.Drain(ctx)
	}()

	stats, err := loadgen.DriveScheduler(sched, loadgen.CrossdStormOptions{
		Seed: seed, Sessions: sessions, Clients: 8,
		Policy: spec.Policy, Breaker: spec.Breaker,
		DelayDiv: 100, JobN: 8,
	})
	if err != nil {
		return err
	}
	fmt.Printf("crossd storm policy=%s sessions=%d clients=8 (workers=2 queue=4, delays /100)\n", label, sessions)
	fmt.Printf("  attempts=%d completed=%d failed=%d\n", stats.Attempts, stats.Completed, stats.Failed)
	fmt.Printf("  rejected: queue=%d throttled=%d breaker_shed=%d give_ups=%d breaker_opens=%d\n",
		stats.RejectQueue, stats.RejectThrottle, stats.BreakerShed, stats.GiveUps, stats.BreakerOpens)
	return nil
}
