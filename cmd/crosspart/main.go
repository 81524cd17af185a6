// Command crosspart runs CoFI-style network-partition campaigns over
// the simulated control planes (HDFS, YARN, Kafka, HBase, Flink-on-YARN
// scenarios in internal/partition). Each scenario replays a real
// cross-system interaction failure whose trigger is a partition landing
// inside a state-inconsistency window; the consistency-guided injector
// watches every node's view of the shared state and cuts exactly when
// two nodes first disagree, holding the cut so recovery cannot mask the
// bug.
//
// Usage:
//
//	crosspart [-seed N] [-strategy compare|guided|random|observe|fixed]
//	          [-scenarios a,b] [-trials N] [-hold MS] [-parallel N]
//	          [-plan] [-list] [-trace dir] [-metrics file] [-version]
//
// Everything is deterministic: the random baseline's cut schedule is a
// pure function of (seed, scenario, trial) — print it without running
// anything via -plan — and a campaign's report hash is bit-identical
// across -parallel settings and repeated runs.
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/cli"
	"repro/internal/partition"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign seed (drives the random baseline's schedules)")
	strategy := flag.String("strategy", "compare", "injection strategy: "+strings.Join(partition.Strategies(), "|"))
	scenarios := flag.String("scenarios", "", "comma-separated scenario names (empty = full registry)")
	trials := flag.Int("trials", partition.DefaultTrials, "random trials per scenario")
	hold := flag.Int64("hold", partition.DefaultHoldMs, "random-cut hold in virtual ms before healing")
	parallel := flag.Int("parallel", 1, "concurrent campaign units")
	plan := flag.Bool("plan", false, "print the deterministic random-cut schedule and exit (runs nothing)")
	list := flag.Bool("list", false, "list the scenario registry and exit")
	cli.Observe()
	cli.Parse("crosspart")
	defer cli.Flush()

	var names []string
	if *scenarios != "" {
		for _, n := range strings.Split(*scenarios, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	if *list {
		for _, sc := range partition.Scenarios() {
			fmt.Printf("%s  %-18s %-11s %s  nodes=%s horizon=%dms\n",
				sc.ID, sc.Name, sc.Anchor, sc.Signature,
				strings.Join(sc.Nodes, ","), sc.HorizonMs)
		}
		return
	}

	if *plan {
		cuts, err := partition.PlanRandom(*seed, names, *trials, *hold)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("random schedule seed=%d trials=%d hold=%dms\n", *seed, *trials, *hold)
		for _, c := range cuts {
			fmt.Printf("  %-18s trial %2d: cut {%s<->%s} @%dms heal @%dms\n",
				c.Scenario, c.Trial, c.From, c.To, c.AtMs, c.HealAtMs)
		}
		return
	}

	res, err := partition.Run(partition.Options{
		Seed:      *seed,
		Scenarios: names,
		Strategy:  partition.Strategy(*strategy),
		Trials:    *trials,
		HoldMs:    *hold,
		Parallel:  *parallel,
		Tracer:    cli.Tracer,
		Metrics:   cli.Metrics,
	})
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Printf("\nreport-hash: %s\n", res.Hash())
}
