package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
)

// corpusKind runs the Figure-6 corpus, optionally under a session
// configuration. A cluster splits it into one shard per plan family.
var corpusKind = kind{
	validate: validateFamilies,
	key: func(s *JobSpec, ks *keySpec) error {
		ks.Conf = s.Conf
		return corpusKey(s, ks)
	},
	execute: executeCorpus,
	split:   splitCorpus,
	sharded: true,
}

// families is the canonical plan-family order (core.Plans() order). A
// spec without families runs all of them, and corpus shards dispatch in
// this order however the submission spelled its list.
var families = []string{"ss", "sh", "hs"}

// validateFamilies is the admission rule of every corpus-backed kind.
func validateFamilies(s *JobSpec) error {
	for _, f := range s.Families {
		if !slices.Contains(families, f) {
			return fmt.Errorf("serve: unknown plan family %q", f)
		}
	}
	return nil
}

// corpusKey fills the content-address fields every corpus-backed kind
// shares: the corpus fingerprint, the sorted families and the input
// prefix.
func corpusKey(s *JobSpec, ks *keySpec) error {
	fp, err := corpusFingerprint()
	if err != nil {
		return err
	}
	ks.Corpus = fp
	ks.Families = append([]string(nil), s.Families...)
	sort.Strings(ks.Families)
	ks.Prefix = s.InputPrefix
	return nil
}

func executeCorpus(ctx context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	inputs, err := corpusInputs(s.InputPrefix)
	if err != nil {
		return nil, err
	}
	opts := e.runOptions(ctx, s, onFailure)
	opts.SparkConf = s.Conf
	run, err := core.Run(inputs, opts)
	if err != nil {
		return nil, err
	}
	rj := run.Report.JSON()
	res := &JobResult{Report: &rj, Rendered: run.Report.Render()}
	if s.Shard {
		res.Merge = corpusMergeMeta(run.Report)
	}
	return res, nil
}

// splitCorpus shards by plan family. Shards carry Shard, so each result
// brings the MergeMeta ranks the deterministic merge needs.
func splitCorpus(s *JobSpec, _ int) ([]JobSpec, error) {
	var subs []JobSpec
	for _, f := range families {
		if len(s.Families) > 0 && !slices.Contains(s.Families, f) {
			continue
		}
		sub := *s
		sub.Families = []string{f}
		sub.Shard = true
		subs = append(subs, sub)
	}
	return subs, nil
}

// corpusMergeMeta captures, per failure cluster, the rank of its first
// failure — the coordinator's tiebreak for which shard's Example
// represents the merged cluster.
func corpusMergeMeta(r *core.Report) *MergeMeta {
	m := &MergeMeta{Ranks: map[string]string{}}
	for _, f := range r.Found {
		if len(f.Failures) > 0 {
			m.Ranks[f.Signature] = f.Failures[0].Rank
		}
	}
	return m
}
