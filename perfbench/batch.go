package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/versions"
)

// Expected outputs. The corpus and skew runs are deterministic; input
// order (which the seed permutes) moves only the examples a corpus
// report picks, so the corpus pins are an order-independent digest of
// every failure plus, for seed 42, the rendered report.
const (
	corpusKnown         = 15
	corpusFailures      = 5833
	corpusFailureDigest = "75f6f3a8376c459fe80b6faf78e6b19a49889785648a4576b0d03b004855dd62"
	corpusReportSHA42   = "7e969d058969c04eebb621723900ccd754e8b51e2d3932860d0dd559bce34436"
	skewMatrixSHA       = "47fcaed02085fecb88aadc1a1634733cb79bf19b07cad45e67991674e84a0bf4"
)

// Every workload runs the harness sequentially, as crosstest, crossfuzz
// and a crossd job spec without parallel do by default: on two CPUs a
// corpus run at Parallel:2 is slower than at 1 (every table read scans
// the warehouse under its lock) and varies more from run to run. The
// fuzz workload checks that a campaign on parallel workers reports the
// same.
var parallel = runtime.NumCPU()

// fuzzN is the probe-group count of one fuzz-workload campaign.
const fuzzN = 2000

// permute returns the inputs in a seeded order.
func permute(rng *rand.Rand, in []core.Input) []core.Input {
	out := make([]core.Input, len(in))
	for i, j := range rng.Perm(len(in)) {
		out[i] = in[j]
	}
	return out
}

// failureDigest hashes every failure's coordinates, sorted, so it does
// not depend on the order cases ran in.
func failureDigest(failures []core.Failure) string {
	lines := make([]string, len(failures))
	for i, f := range failures {
		peer := ""
		if f.Peer != nil {
			peer = f.Peer.Describe()
		}
		lines[i] = strings.Join([]string{f.Oracle.String(), f.Signature, f.Case.Describe(), peer, f.Detail}, "|")
	}
	sort.Strings(lines)
	return core.HashBytes([]byte(strings.Join(lines, "\n")))
}

// reportMs times rendering a report, projecting it to JSON and hashing
// it: what crosstest and crossd do with every result.
func reportMs(rep *core.Report) float64 {
	t := time.Now()
	sha := core.HashBytes([]byte(rep.Render()))
	data, _ := json.Marshal(rep.JSON()) // a ReportJSON always marshals
	_ = core.HashBytes(append(data, sha...))
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// shippedObs is cmd/crossd's default observability: a wall-clock tracer
// capped at 4096 spans, a metrics registry and a 1024-event recorder.
type shippedObs struct {
	tracer   *obs.Tracer
	metrics  *obs.Registry
	recorder *obs.Recorder
}

func newShippedObs() shippedObs {
	tr := obs.NewTracer(obs.WallClock{})
	tr.SetCap(4096)
	return shippedObs{tracer: tr, metrics: obs.NewRegistry(), recorder: obs.NewRecorder(1024)}
}

// spansCreated counts every span the tracer ever opened (the capped
// tracer keeps only the newest; IDs are sequential).
func (o shippedObs) spansCreated() int64 {
	spans := o.tracer.Snapshot()
	if len(spans) == 0 {
		return 0
	}
	return spans[len(spans)-1].ID
}

// shippedOverhead runs op once under the shipped observability and
// stores its wall over baseMs, and the spans it opened per case.
func shippedOverhead(layers map[string]float64, baseMs float64, op func(o shippedObs) (cases int, err error)) error {
	o := newShippedObs()
	t := time.Now()
	cases, err := op(o)
	if err != nil {
		return err
	}
	layers["obs.shipped_overhead_x"] = ratio(float64(time.Since(t))/float64(time.Millisecond), baseMs)
	layers["obs.spans_per_case"] = ratio(float64(o.spansCreated()), float64(cases))
	return nil
}

// sendLag stores the generator-lag tail of a run.
func sendLag(r *result) {
	s := append([]float64(nil), r.extra["send_lag_ms"]...)
	sort.Float64s(s)
	r.layers["client.send_lag_p99_ms"] = percentile(s, 99)
}

// runCorpus is the Figure-6 run at full size: back-to-back core.Run over
// the 422-input corpus in one warehouse.
func runCorpus(cfg *config) (*result, error) {
	r := newResult("corpus")
	inputs, setup, err := measureSetup(func() ([]core.Input, error) {
		in, err := core.BuildCorpus()
		return permute(cfg.rng(), in), err
	}, nil)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = setup
	var firstSHA string
	var last *core.RunResult
	check := func(res *core.RunResult) error {
		if n := len(res.Report.DistinctKnown()); n != corpusKnown {
			return fmt.Errorf("%d known discrepancies, want %d", n, corpusKnown)
		}
		if n := len(res.Failures); n != corpusFailures {
			return fmt.Errorf("%d oracle failures, want %d", n, corpusFailures)
		}
		if d := failureDigest(res.Failures); d != corpusFailureDigest {
			return fmt.Errorf("failure digest %s, want %s", d, corpusFailureDigest)
		}
		sha := core.HashBytes([]byte(res.Report.Render()))
		if cfg.seed == 42 && sha != corpusReportSHA42 {
			return fmt.Errorf("report sha %s, want the seed-42 pin %s", sha, corpusReportSHA42)
		}
		if firstSHA == "" {
			firstSHA = sha
		} else if sha != firstSHA {
			return fmt.Errorf("report sha %s differs from the first sample's %s", sha, firstSHA)
		}
		return nil
	}
	err = closedLoop(cfg, r, 2, func(int) (opOutcome, error) {
		res, err := core.Run(inputs, core.RunOptions{})
		if err != nil {
			return opOutcome{}, err
		}
		if cfg.trace {
			last = res // kept for the report timing; holding it would skew heap_peak_mb
		}
		return opOutcome{cases: len(res.Cases), check: func() error { return check(res) }}, nil
	})
	if err != nil || !cfg.trace {
		return r, err
	}

	opMs := median(r.e2e["op_p50_ms"])
	r.layers["core.report_ms"] = reportMs(last.Report)
	caseTime, err := dataPlane(cfg, r, []deployUnit{{cases: corpusCases(inputs, nil), want: harnessOutcomes(last.Cases)}})
	if err != nil {
		return nil, err
	}
	r.layers["core.harness_self_ms"] = opMs - float64(caseTime)/float64(time.Millisecond)
	err = shippedOverhead(r.layers, opMs, func(o shippedObs) (int, error) {
		res, err := core.Run(inputs, core.RunOptions{Tracer: o.tracer, Metrics: o.metrics})
		if err != nil {
			return 0, err
		}
		return len(res.Cases), nil
	})
	sendLag(r)
	return r, err
}

// runSkew is the version-skew matrix: the base corpus over the five
// default writer->reader pairs, five deployments per sample.
func runSkew(cfg *config) (*result, error) {
	r := newResult("skew")
	type setup struct {
		inputs []core.Input
		pairs  []versions.Pair
	}
	s, secs, err := measureSetup(func() (setup, error) {
		in, err := core.BuildBaseCorpus()
		if err != nil {
			return setup{}, err
		}
		pairs := versions.DefaultPairs()
		for _, p := range pairs {
			if err := p.Validate(); err != nil {
				return setup{}, err
			}
		}
		return setup{inputs: permute(cfg.rng(), in), pairs: pairs}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = secs
	cases := len(s.inputs) * len(core.Plans()) * len(core.Formats()) * len(s.pairs)
	check := func(m *core.SkewMatrix) error {
		if len(m.Cells) != len(s.pairs) || len(m.Cells[0].Known) != corpusKnown {
			return fmt.Errorf("matrix has %d cells, baseline cell %v known", len(m.Cells), m.Cells[0].Known)
		}
		if sha := core.HashBytes([]byte(m.Render())); sha != skewMatrixSHA {
			return fmt.Errorf("matrix sha %s, want %s", sha, skewMatrixSHA)
		}
		return nil
	}
	var last *core.SkewMatrix
	err = closedLoop(cfg, r, 2, func(int) (opOutcome, error) {
		m, err := core.RunSkewMatrix(s.inputs, s.pairs, core.RunOptions{})
		if err != nil {
			return opOutcome{}, err
		}
		last = m
		return opOutcome{cases: cases, check: func() error { return check(m) }}, nil
	})
	if err != nil || !cfg.trace {
		return r, err
	}

	opMs := median(r.e2e["op_p50_ms"])
	t := time.Now()
	_ = core.HashBytes([]byte(last.Render()))
	r.layers["core.report_ms"] = float64(time.Since(t)) / float64(time.Millisecond)
	var units []deployUnit
	for i := range s.pairs {
		// The matrix keeps no case results; a cell rerun gives the ones
		// the replay is checked against.
		cell, err := core.RunSkew(s.inputs, s.pairs[i], core.RunOptions{})
		if err != nil {
			return nil, err
		}
		units = append(units, deployUnit{pair: &s.pairs[i], cases: corpusCases(s.inputs, nil), want: harnessOutcomes(cell.Cases)})
	}
	caseTime, err := dataPlane(cfg, r, units)
	if err != nil {
		return nil, err
	}
	r.layers["core.harness_self_ms"] = opMs - float64(caseTime)/float64(time.Millisecond)
	err = shippedOverhead(r.layers, opMs, func(o shippedObs) (int, error) {
		_, err := core.RunSkewMatrix(s.inputs, s.pairs, core.RunOptions{Tracer: o.tracer, Metrics: o.metrics})
		return cases, err
	})
	sendLag(r)
	return r, err
}

// fuzzReplays is how many campaigns a traced fuzz run samples and then
// takes apart.
const fuzzReplays = 2

// runFuzz is back-to-back fuzz campaigns, each on a fresh campaign seed
// drawn from the workload seed, with observability off as in crossfuzz.
func runFuzz(cfg *config) (*result, error) {
	r := newResult("fuzz")
	seeds, secs, err := measureSetup(func() ([]uint64, error) {
		rng := cfg.rng()
		seeds := make([]uint64, 4096)
		for i := range seeds {
			seeds[i] = rng.Uint64()
		}
		return seeds, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = secs
	var firstHash string
	err = closedLoop(cfg, r, fuzzReplays, func(i int) (opOutcome, error) {
		start := time.Now()
		var first time.Duration
		res, err := fuzzgen.RunCampaign(fuzzgen.Options{
			Seed: seeds[(i+1)%len(seeds)], N: fuzzN,
			OnFailure: func(core.Failure) {
				if first == 0 {
					first = time.Since(start)
				}
			},
		})
		if err != nil {
			return opOutcome{}, err
		}
		if i >= 0 {
			r.extra["first_event_ms"] = append(r.extra["first_event_ms"], float64(first)/float64(time.Millisecond))
		}
		if i == 0 {
			firstHash = res.Hash()
		}
		return opOutcome{cases: res.TableCases, check: func() error {
			if res.Stopped || res.Cancelled || res.TableCases == 0 {
				return fmt.Errorf("campaign %d incomplete: %d table cases", res.Opts.Seed, res.TableCases)
			}
			return nil
		}}, nil
	})
	if err != nil {
		return r, err
	}
	// Reproducibility: the first campaign rerun on parallel workers must
	// render the same report.
	r.attempted++
	if rerun, err := fuzzgen.RunCampaign(fuzzgen.Options{Seed: seeds[1], N: fuzzN, Parallel: parallel}); err != nil {
		r.problem("parallel rerun: %v", err)
	} else if h := rerun.Hash(); h != firstHash {
		r.problem("campaign %d hash %s sequentially, %s at Parallel:%d", seeds[1], firstHash, h, parallel)
	}
	if !cfg.trace {
		return r, nil
	}

	var specs []serve.JobSpec
	for i := range r.e2e["op_p50_ms"] {
		specs = append(specs, serve.JobSpec{Kind: serve.KindFuzz, Seed: seeds[i+1], N: fuzzN})
	}
	if err := replaySpecs(cfg, r, specs); err != nil {
		return nil, err
	}
	err = shippedOverhead(r.layers, r.e2e["op_p50_ms"][0], func(o shippedObs) (int, error) {
		res, err := fuzzgen.RunCampaign(fuzzgen.Options{Seed: seeds[1], N: fuzzN, Tracer: o.tracer, Metrics: o.metrics})
		if err != nil {
			return 0, err
		}
		return res.TableCases, nil
	})
	sendLag(r)
	return r, err
}
