package serve

import (
	"context"

	"repro/internal/core"
)

// kind is one job kind's descriptor. A kind lives in its own
// kind_<name>.go file: it resolves its defaults there exactly once,
// through the plane that owns them (core, fuzzgen, partition), so crossd
// and the CLIs accept and reject the same specs; its admission rules add
// only crossd's own limits, and its content address, execution and
// cluster split all read that one resolution.
type kind struct {
	// validate rejects a malformed spec of the kind at admission.
	validate func(s *JobSpec) error
	// key fills the kind's fields of the canonical content address.
	key func(s *JobSpec, ks *keySpec) error
	// execute runs the spec and returns the result's payload and
	// rendering; Stamp fills in the fields every result shares.
	execute func(ctx context.Context, e *Executor, s *JobSpec, onFailure func(core.Failure)) (*JobResult, error)
	// split returns the sub-specs a cluster coordinator fans the spec
	// out as, in merge order, or nil when the spec runs as one unit.
	// Nil for kinds that never split.
	split func(s *JobSpec, factor int) ([]JobSpec, error)
	// ranged and sharded mark the kinds that accept the cluster fields
	// From (a seed-range offset) and Shard (merge metadata).
	ranged, sharded bool
}

// kinds is the job-kind table: serve's only dispatch on JobSpec.Kind.
var kinds = map[string]kind{
	KindCorpus:    corpusKind,
	KindSweep:     sweepKind,
	KindFuzz:      fuzzKind,
	KindSkew:      skewKind,
	KindPartition: partitionKind,
}

// SubSpecs validates the spec and returns the sub-specs a cluster
// coordinator fans it out as, in the order a merge expects their
// results; factor is the fuzz seed-range fan-out. Nil means the spec
// runs as one unit.
func (s *JobSpec) SubSpecs(factor int) ([]JobSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	split := kinds[s.Kind].split
	if split == nil {
		return nil, nil
	}
	return split(s, factor)
}
