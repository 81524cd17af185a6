package main

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/inject"
)

// campaignReplay is a fuzz campaign taken apart into the public calls
// fuzzgen.RunCampaign makes — Generator.Case and TableCases, one
// core.RunTables per configuration batch, Shrink per new signature — so
// each step can be timed on its own.
type campaignReplay struct {
	generate   time.Duration
	batches    []time.Duration
	shrink     time.Duration
	tables     int
	failures   int
	units      []deployUnit
	generated  int
	reproduced int // signatures shrunk
}

// replayCampaign replays a default campaign (6 configurations, no
// version axis) of n probe groups from index from, running each batch
// sequentially.
func replayCampaign(seed uint64, n, from int) (*campaignReplay, error) {
	out := &campaignReplay{}
	start := time.Now()
	g := fuzzgen.NewGenerator(seed, 6)
	pool := g.ConfPool()
	type gen struct {
		c      fuzzgen.Case
		conf   int
		tables []*core.TableCase
	}
	cases := make([]gen, 0, n)
	for i := from; i < from+n; i++ {
		c := g.Case(i)
		tables, err := fuzzgen.TableCases(&c, i)
		if err != nil {
			return nil, err
		}
		// RunCampaign batches by configuration content, the last pool
		// entry of equal content winning.
		conf := 0
		for j, p := range pool {
			if maps.Equal(p, c.Conf) {
				conf = j
			}
		}
		cases = append(cases, gen{c: c, conf: conf, tables: tables})
	}
	out.generate = time.Since(start)
	out.generated = len(cases)

	known := inject.BySignature()
	firstCase := map[string]fuzzgen.Case{}
	for conf := range pool {
		var batch []*core.TableCase
		owner := map[string]fuzzgen.Case{}
		for _, gc := range cases {
			if gc.conf != conf {
				continue
			}
			for _, tc := range gc.tables {
				owner[tc.Label] = gc.c
			}
			batch = append(batch, gc.tables...)
		}
		if len(batch) == 0 {
			continue
		}
		t := time.Now()
		run, err := core.RunTables(batch, core.RunOptions{SparkConf: pool[conf], Parallel: 1})
		if err != nil {
			return nil, fmt.Errorf("fuzz batch %d: %w", conf, err)
		}
		out.batches = append(out.batches, time.Since(t))
		out.units = append(out.units, deployUnit{conf: pool[conf], cases: tableCases(batch), want: harnessOutcomes(run.Cases)})
		out.tables += len(batch)
		out.failures += len(run.Failures)
		for _, f := range run.Failures {
			if _, seen := firstCase[f.Signature]; !seen {
				firstCase[f.Signature] = owner[f.Case.Table]
			}
		}
	}

	sigs := make([]string, 0, len(firstCase))
	for s := range firstCase {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	t := time.Now()
	for _, s := range sigs {
		if _, ok := known[s]; ok {
			continue
		}
		fuzzgen.Shrink(firstCase[s], s)
		out.reproduced++
	}
	out.shrink = time.Since(t)
	return out, nil
}

// fuzzLayers stores the fuzzgen layer values of a set of replayed
// campaigns.
func fuzzLayers(reps []*campaignReplay, layers map[string]float64) {
	var gen, shrink, batch time.Duration
	var generated, tables, batches int
	for _, r := range reps {
		gen += r.generate
		shrink += r.shrink
		for _, b := range r.batches {
			batch += b
		}
		generated += r.generated
		tables += r.tables
		batches += len(r.batches)
	}
	total := float64(gen + shrink + batch)
	layers["fuzzgen.generate_share"] = ratio(float64(gen), total)
	layers["fuzzgen.shrink_share"] = ratio(float64(shrink), total)
	layers["fuzzgen.generate_us"] = ratio(float64(gen)/float64(time.Microsecond), float64(generated))
	layers["fuzzgen.batch_ms"] = ratio(float64(batch)/float64(time.Millisecond), float64(batches))
	layers["fuzzgen.tables_per_batch"] = ratio(float64(tables), float64(batches))
	layers["fuzzgen.shrink_ms"] = ratio(float64(shrink)/float64(time.Millisecond), float64(len(reps)))
}
