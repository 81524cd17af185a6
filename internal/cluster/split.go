// Package cluster shards crossd into a multi-node differential-testing
// cluster: a coordinator splits large jobs into sub-jobs, fans them out
// to worker nodes over the crossd HTTP API, and merges the sub-results
// into a parent result byte-identical to a single-node run. A
// consistent-hash ring over the sub-job content addresses gives every
// sub-job a cache-affinity owner, and the same ring backs the
// distributed cache tier (peer-fetch-before-recompute), so resharding
// a cluster and resubmitting a campaign re-executes nothing.
package cluster

import (
	"fmt"

	"repro/internal/serve"
)

// SubJob is one fragment of a split parent job: a plain, independently
// submittable spec plus its content address (the ring key used for
// cache-affinity dispatch).
type SubJob struct {
	Spec serve.JobSpec
	Key  string
}

// Split breaks a parent spec into sub-jobs by its kind's split rule
// (serve.JobSpec.SubSpecs; each rule lives in serve/kind_<name>.go). A
// job that does not split (sweep, a scheduled partition, or a
// degenerate size) returns ok=false and should run as a single unit.
func Split(spec serve.JobSpec, factor int) (subs []SubJob, ok bool, err error) {
	specs, err := spec.SubSpecs(factor)
	if err != nil {
		return nil, false, err
	}
	if len(specs) < 2 {
		return nil, false, nil
	}
	subs = make([]SubJob, 0, len(specs))
	for _, s := range specs {
		key, err := s.CacheKey()
		if err != nil {
			return nil, false, fmt.Errorf("cluster: sub-job key: %w", err)
		}
		subs = append(subs, SubJob{Spec: s, Key: key})
	}
	return subs, true, nil
}
