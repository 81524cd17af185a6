package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/versions"
)

// skewKind runs the version-skew matrix: the corpus over writer->reader
// version pairs. A cluster splits it into one plain spec per pair — the
// spec a user could submit directly, so the cache tier serves either
// from the other.
var skewKind = kind{
	validate: func(s *JobSpec) error {
		if err := validateFamilies(s); err != nil {
			return err
		}
		_, err := s.skewPairs()
		return err
	},
	key:     skewKey,
	execute: executeSkew,
	split:   splitSkew,
}

// skewPairs resolves the spec's version pairs: the submitted pairs in
// submission order (pair order is cell order in the result), or
// versions.DefaultPairs() when none were given. An unknown version
// profile is an error, never normalized to a default, which would alias
// two different deployments under one cache key.
func (s *JobSpec) skewPairs() ([]versions.Pair, error) {
	if len(s.Pairs) == 0 {
		return versions.DefaultPairs(), nil
	}
	pairs := make([]versions.Pair, 0, len(s.Pairs))
	for _, spec := range s.Pairs {
		p, err := versions.ParsePair(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: bad version pair %q: %w", spec, err)
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// skewKey adds the resolved pairs, in canonical writer->reader spelling,
// to the corpus-backed key.
func skewKey(s *JobSpec, ks *keySpec) error {
	if err := corpusKey(s, ks); err != nil {
		return err
	}
	pairs, err := s.skewPairs()
	if err != nil {
		return err
	}
	for _, p := range pairs {
		ks.Pairs = append(ks.Pairs, p.String())
	}
	return nil
}

func executeSkew(ctx context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	inputs, err := core.CorpusInputs(s.InputPrefix)
	if err != nil {
		return nil, err
	}
	pairs, err := s.skewPairs()
	if err != nil {
		return nil, err
	}
	m, err := core.RunSkewMatrix(inputs, pairs, e.runOptions(ctx, s, onFailure))
	if err != nil {
		return nil, err
	}
	return SkewResult(m), nil
}

func splitSkew(s *JobSpec, _ int) ([]JobSpec, error) {
	pairs, err := s.skewPairs()
	if err != nil {
		return nil, err
	}
	subs := make([]JobSpec, 0, len(pairs))
	for _, p := range pairs {
		sub := *s
		sub.Pairs = []string{p.String()}
		subs = append(subs, sub)
	}
	return subs, nil
}

// SkewResult builds a skew job's payload and rendering from its matrix:
// the one builder for an executed matrix and a merged one.
func SkewResult(m *core.SkewMatrix) *JobResult {
	sj := &SkewJSON{Cells: m.Cells}
	for _, cell := range m.Cells {
		sj.Pairs = append(sj.Pairs, cell.Pair.String())
	}
	return &JobResult{Skew: sj, Rendered: m.Render()}
}
