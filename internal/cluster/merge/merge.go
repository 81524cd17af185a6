// Package merge reassembles a split job's sub-results into the parent
// result, byte-identical to what a single node running the whole job
// produces. The contract per kind:
//
//   - corpus: sub-reports (one per plan family) merge at the
//     ReportJSON level; failure ranks carried in MergeMeta decide which
//     shard's example represents each merged cluster, core.AssembleReport
//     orders and tallies the merged clusters, and core.RenderReportJSON
//     (the one report renderer) rebuilds the text.
//   - fuzz: sub-campaigns (contiguous seed ranges) sum their tallies
//     and rank-merge their clusters; fuzzgen's Result.Assemble (the
//     builder RunCampaign uses) orders them and derives the known hits,
//     new signatures and the minimum-rank shard's reproducers, and the
//     real Render produces the text.
//   - skew: one core.SkewCell per pair, concatenated in parent pair
//     order into a core.SkewMatrix.
//   - partition: one scenario per sub, concatenated in expanded
//     registry order into a partition.Result.
//
// Every merged payload is built and stamped by the code Execute uses
// (the spec's resolved options, fuzzgen's Result.Assemble,
// serve.FuzzResult, serve.SkewResult, JobSpec.Stamp), so a merged
// result cannot drift from the single-node one. The merges stay in
// this package rather than in serve's kind files because crossvet holds
// this package to the determinism contract, while serve is allowed the
// wall clock.
//
// Everything here is deterministic: map iteration is always sorted
// before it can reach rendered output, and the merged result depends
// only on the multiset of sub-results, not their arrival order.
package merge

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/partition"
	"repro/internal/serve"
)

// subRank returns the merge rank a sub-result recorded for a cluster
// signature ("" when absent — absent ranks lose every comparison).
func subRank(sub *serve.JobResult, sig string) string {
	if sub.Merge == nil {
		return ""
	}
	return sub.Merge.Ranks[sig]
}

// better reports whether rank a beats rank b as the representative
// (first-in-emission-order) failure: a non-empty rank beats an empty
// one, otherwise plain string order — ranks are built so string order
// is emission order.
func better(a, b string) bool {
	if a == "" {
		return false
	}
	if b == "" {
		return true
	}
	return a < b
}

// Corpus merges family-shard corpus results into the parent report:
// it sums the shards' oracle totals and per-cluster counts, keeps each
// cluster's example from the shard with the minimum rank, and leaves
// the ordering and every derived field to core.AssembleReport, the
// builder Report.JSON uses.
func Corpus(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	oracles := map[string]int{}
	var found []core.FoundJSON
	var ranks []string     // ranks[i]: the rank of found[i]'s example
	at := map[string]int{} // signature -> index into found
	for _, sub := range subs {
		if sub == nil || sub.Report == nil {
			return nil, fmt.Errorf("merge: corpus sub-result missing report")
		}
		for k, v := range sub.Report.OracleFailures {
			oracles[k] += v
		}
		for _, fj := range sub.Report.Found {
			rank := subRank(sub, fj.Signature)
			i, ok := at[fj.Signature]
			if !ok {
				at[fj.Signature] = len(found)
				ranks = append(ranks, rank)
				own := make(map[string]int, len(fj.Oracles))
				maps.Copy(own, fj.Oracles)
				fj.Oracles = own
				found = append(found, fj)
				continue
			}
			a := &found[i]
			a.Failures += fj.Failures
			for o, n := range fj.Oracles {
				a.Oracles[o] += n
			}
			if better(rank, ranks[i]) {
				a.Example = fj.Example
				ranks[i] = rank
			}
		}
	}
	merged := core.AssembleReport(found, oracles)
	return spec.Stamp(&serve.JobResult{Report: &merged, Rendered: core.RenderReportJSON(merged)})
}

// Fuzz merges seed-range shard campaigns into the parent campaign
// result under the parent's resolved options: it sums the shards'
// tallies and cluster counts, keeps each cluster's example from the
// shard with the minimum rank, and leaves the ordering and every
// derived field to fuzzgen's Result.Assemble, the builder RunCampaign
// uses, so the real Render produces the report text.
func Fuzz(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	opts, err := spec.FuzzOptions()
	if err != nil {
		return nil, err
	}
	camp := &fuzzgen.Result{Opts: opts}
	clusters := map[string]*fuzzgen.Cluster{}
	first := map[string]*serve.JobResult{} // signature -> its minimum-rank shard
	for _, sub := range subs {
		if sub == nil || sub.Fuzz == nil {
			return nil, fmt.Errorf("merge: fuzz sub-result missing campaign payload")
		}
		camp.Generated += sub.Fuzz.N
		camp.Executed += sub.Fuzz.Executed
		camp.TableCases += sub.Fuzz.TableCases
		camp.Failures += sub.Fuzz.Failures
		for _, cl := range sub.Fuzz.Clusters {
			cl.FirstRank = subRank(sub, cl.Signature)
			a, ok := clusters[cl.Signature]
			if !ok {
				clusters[cl.Signature], first[cl.Signature] = &cl, sub
				continue
			}
			a.Count += cl.Count
			if better(cl.FirstRank, a.FirstRank) {
				a.Example, a.FirstRank = cl.Example, cl.FirstRank
				first[cl.Signature] = sub
			}
		}
	}
	// The minimum-rank shard saw the campaign's first failure of a
	// signature; Shrink is pure, so its reproducer is the one the
	// unsharded campaign emits.
	camp.Assemble(clusters, func(cl *fuzzgen.Cluster) *fuzzgen.Reproducer {
		if m := first[cl.Signature].Merge; m != nil {
			for _, r := range m.Reproducers {
				if r.Signature == cl.Signature {
					return &r
				}
			}
		}
		return nil
	})
	return spec.Stamp(serve.FuzzResult(camp))
}

// Skew merges per-pair skew cells, in parent pair order (the sub-result
// order), into the parent matrix.
func Skew(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	m := &core.SkewMatrix{}
	for _, sub := range subs {
		if sub == nil || sub.Skew == nil {
			return nil, fmt.Errorf("merge: skew sub-result missing matrix payload")
		}
		m.Cells = append(m.Cells, sub.Skew.Cells...)
	}
	return spec.Stamp(serve.SkewResult(m))
}

// Partition merges per-scenario campaign outcomes, in parent scenario
// order (the sub-result order), into the parent campaign result.
func Partition(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	o, err := spec.PartitionOptions()
	if err != nil {
		return nil, err
	}
	pres := &partition.Result{Seed: o.Seed, Strategy: o.Strategy, Trials: o.Trials, HoldMs: o.HoldMs}
	for _, sub := range subs {
		if sub == nil || sub.Partition == nil {
			return nil, fmt.Errorf("merge: partition sub-result missing campaign payload")
		}
		pres.Outcomes = append(pres.Outcomes, sub.Partition.Outcomes...)
	}
	return spec.Stamp(&serve.JobResult{Partition: pres, Rendered: pres.Render()})
}
