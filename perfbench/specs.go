package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/serve"
)

// corpusSpecInputs are the corpus inputs a corpus job runs on: the
// Figure-6 corpus restricted by the spec's input prefix, as the
// executor selects them.
func corpusSpecInputs(spec serve.JobSpec) ([]core.Input, error) {
	all, err := core.BuildCorpus()
	if err != nil {
		return nil, err
	}
	var out []core.Input
	for _, in := range all {
		if strings.HasPrefix(in.Name, spec.InputPrefix) {
			out = append(out, in)
		}
	}
	return out, nil
}

// specCases is the number of oracle-checked cases a job result covers:
// the table cases of a fuzz campaign, input × plan × format of a corpus
// run. Partition campaigns check invariants, not cases, and count 0.
func specCases(res *serve.JobResult) (int, error) {
	switch res.Kind {
	case serve.KindFuzz:
		return res.Fuzz.TableCases, nil
	case serve.KindCorpus:
		inputs, err := corpusSpecInputs(res.Spec)
		return len(corpusCases(inputs, res.Spec.Families)), err
	}
	return 0, nil
}

// directSHA executes each distinct spec once on a plain executor (no
// observability, no server) and returns the report sha per cache key —
// the reference a served result must match.
func directSHA(specs []serve.JobSpec) (map[string]string, map[string]time.Duration, error) {
	sha := map[string]string{}
	wall := map[string]time.Duration{}
	exec := &serve.Executor{}
	for _, s := range specs {
		key, err := s.CacheKey()
		if err != nil {
			return nil, nil, err
		}
		if _, done := sha[key]; done {
			continue
		}
		t := time.Now()
		res, err := exec.Execute(context.Background(), s, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("direct %s job: %w", s.Kind, err)
		}
		wall[key] = time.Since(t)
		sha[key] = res.ReportSHA
	}
	return sha, wall, nil
}

// specReplays is how many distinct job specs a served workload's traced
// phase takes apart.
const specReplays = 8

// replaySpecs takes fuzz and corpus job specs apart into the calls the
// executor makes and stores the core, fuzzgen and data-plane layer
// values: per spec, the sequential harness run (its wall and report
// time), the campaign replay for fuzz specs, and the data-plane replay
// of every deployment unit. Partition specs have no data plane and are
// skipped.
func replaySpecs(cfg *config, r *result, specs []serve.JobSpec) error {
	var reps []*campaignReplay
	var units []deployUnit
	var harness time.Duration
	var report []float64
	ran := 0
	for _, s := range specs {
		switch s.Kind {
		case serve.KindFuzz:
			if s.Confs != 0 && s.Confs != 6 {
				return fmt.Errorf("replay of a %d-configuration campaign is not supported", s.Confs)
			}
			res, err := fuzzgen.RunCampaign(fuzzgen.Options{Seed: s.Seed, N: s.N, From: s.From})
			if err != nil {
				return err
			}
			t := time.Now()
			_ = res.Hash()
			report = append(report, float64(time.Since(t))/float64(time.Millisecond))
			rep, err := replayCampaign(s.Seed, s.N, s.From)
			if err != nil {
				return err
			}
			if rep.tables != res.TableCases || rep.failures != res.Failures || rep.reproduced != len(res.Reproducers) {
				r.problem("replay of campaign %d ran %d tables with %d failures and %d shrunk, the campaign %d, %d and %d",
					s.Seed, rep.tables, rep.failures, rep.reproduced, res.TableCases, res.Failures, len(res.Reproducers))
			}
			for _, b := range rep.batches {
				harness += b
			}
			reps = append(reps, rep)
			units = append(units, rep.units...)
		case serve.KindCorpus:
			inputs, err := corpusSpecInputs(s)
			if err != nil {
				return err
			}
			t := time.Now()
			res, err := core.Run(inputs, core.RunOptions{SparkConf: s.Conf, Families: s.Families})
			if err != nil {
				return err
			}
			harness += time.Since(t)
			report = append(report, reportMs(res.Report))
			units = append(units, deployUnit{conf: s.Conf, cases: corpusCases(inputs, s.Families), want: harnessOutcomes(res.Cases)})
		default:
			continue
		}
		if ran++; ran == specReplays {
			break
		}
	}
	if ran == 0 {
		return fmt.Errorf("no fuzz or corpus job to replay")
	}
	fuzzLayers(reps, r.layers)
	caseTime, err := dataPlane(cfg, r, units)
	if err != nil {
		return err
	}
	r.layers["core.harness_self_ms"] = float64(harness-caseTime) / float64(time.Millisecond) / float64(ran)
	r.layers["core.report_ms"] = median(report)
	return nil
}

// specOverhead stores obs.shipped_overhead_x for served work: the
// executor's wall on the replayed specs with the shipped observability
// over its wall without (the direct reference runs).
func specOverhead(r *result, specs []serve.JobSpec, plain map[string]time.Duration) error {
	o := newShippedObs()
	exec := &serve.Executor{Metrics: o.metrics, Tracer: o.tracer, Recorder: o.recorder}
	var with, without time.Duration
	for i, s := range specs {
		if i == specReplays {
			break
		}
		key, err := s.CacheKey()
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := exec.Execute(context.Background(), s, nil); err != nil {
			return err
		}
		with += time.Since(t)
		without += plain[key]
	}
	r.layers["obs.shipped_overhead_x"] = ratio(float64(with), float64(without))
	return nil
}

// distinctSpecs keeps the first spec of each cache key, in order.
func distinctSpecs(specs []serve.JobSpec) ([]serve.JobSpec, error) {
	seen := map[string]bool{}
	var out []serve.JobSpec
	for _, s := range specs {
		key, err := s.CacheKey()
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out, nil
}
