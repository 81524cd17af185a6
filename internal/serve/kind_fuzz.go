package serve

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fuzzgen"
)

// fuzzKind runs a fuzz campaign identified by (seed, n, from, confs). A
// cluster splits it into contiguous seed-index ranges.
var fuzzKind = kind{
	validate: validateFuzz,
	key: func(s *JobSpec, ks *keySpec) error {
		o, err := s.FuzzOptions()
		if err != nil {
			return err
		}
		ks.Seed, ks.N, ks.From, ks.Confs = o.Seed, o.N, o.From, o.Confs
		return nil
	},
	execute: executeFuzz,
	split:   splitFuzz,
	ranged:  true,
	sharded: true,
}

// FuzzOptions resolves the spec into the campaign options it runs
// under (fuzzgen.Options.Resolve: the default configuration-pool size
// filled in, so confs 0 and 6 share a key; negative values rejected).
// A cluster merge renders the merged campaign under the same options.
func (s *JobSpec) FuzzOptions() (fuzzgen.Options, error) {
	return fuzzgen.Options{Seed: s.Seed, N: s.N, From: s.From, Confs: s.Confs}.Resolve()
}

// validateFuzz rejects, at admission, a campaign fuzzgen rejects and
// one outside crossd's size limits.
func validateFuzz(s *JobSpec) error {
	if s.N <= 0 {
		return fmt.Errorf("serve: fuzz job needs n > 0, got %d", s.N)
	}
	if s.N > 1_000_000 {
		return fmt.Errorf("serve: fuzz n %d exceeds the 1000000 admission limit", s.N)
	}
	_, err := s.FuzzOptions()
	return err
}

func executeFuzz(ctx context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	o, err := s.FuzzOptions()
	if err != nil {
		return nil, err
	}
	o.Context, o.Parallel, o.Tracer, o.Metrics, o.OnFailure = ctx, s.Parallel, e.Tracer, e.Metrics, onFailure
	camp, err := fuzzgen.RunCampaign(o)
	if err != nil {
		return nil, err
	}
	if camp.Cancelled {
		// The campaign flushed a partial result, but a serving layer
		// must never cache or return a non-reproducible report for a
		// content-addressed spec.
		return nil, cmp.Or(ctx.Err(), context.Canceled)
	}
	res := FuzzResult(camp)
	if s.Shard {
		res.Merge = fuzzMergeMeta(camp)
	}
	return res, nil
}

// splitFuzz cuts [From, From+N) into factor contiguous ranges, the
// remainder spread over the first shards so sizes differ by at most
// one. Shards carry Shard, so each result brings its ranks and
// reproducers for the merge.
func splitFuzz(s *JobSpec, factor int) ([]JobSpec, error) {
	if factor < 2 || s.N < 2 {
		return nil, nil
	}
	factor = min(factor, s.N)
	base, rem := s.N/factor, s.N%factor
	subs := make([]JobSpec, 0, factor)
	from := s.From
	for i := 0; i < factor; i++ {
		sub := *s
		sub.From = from
		sub.N = base
		if i < rem {
			sub.N++
		}
		sub.Shard = true
		subs = append(subs, sub)
		from += sub.N
	}
	return subs, nil
}

// FuzzResult builds a fuzz job's payload and rendering from its
// campaign: the one builder for an executed campaign and a merged one.
func FuzzResult(camp *fuzzgen.Result) *JobResult {
	fj := &FuzzJSON{
		Seed:          camp.Opts.Seed,
		N:             camp.Opts.N,
		From:          camp.Opts.From,
		Confs:         camp.Opts.Confs,
		Executed:      camp.Executed,
		TableCases:    camp.TableCases,
		Failures:      camp.Failures,
		Clusters:      camp.Clusters,
		KnownHit:      camp.KnownHit,
		NewSignatures: camp.NewSigs,
	}
	return &JobResult{Fuzz: fj, Rendered: camp.Render()}
}

// fuzzMergeMeta captures each cluster's first-failure rank and the
// shard's minimized reproducers; the coordinator keeps the example and
// reproducer of the minimum-rank shard per signature.
func fuzzMergeMeta(camp *fuzzgen.Result) *MergeMeta {
	m := &MergeMeta{Ranks: map[string]string{}}
	for _, cl := range camp.Clusters {
		m.Ranks[cl.Signature] = cl.FirstRank
	}
	for _, r := range camp.Reproducers {
		m.Reproducers = append(m.Reproducers, *r)
	}
	return m
}
